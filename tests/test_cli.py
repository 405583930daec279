"""Command-line flow: exit codes, artifact layout, provenance checks, and
config/env plumbing.  Uses a deliberately tiny dataset; output quality is
not the point here."""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from soccersum.cli import main
from soccersum.neural import load_checkpoint, save_checkpoint

TINY = """\
gen.matches = 10
gen.events_mean = 300
eval.kfold = 5
eval.folds = 1
stage1.epochs = 4
stage1.patience = 4
stage2.epochs = 4
stage2.patience = 4
"""

SMALL_GEN = """\
gen.matches = 2
gen.events_mean = 250
"""


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Run the whole piecewise flow once; individual tests inspect it."""
    root = tmp_path_factory.mktemp("chain")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY)
    data = root / "data"
    run = root / "run"
    run.mkdir()

    def step(argv):
        rc = main(argv)
        assert rc == 0, "step failed: %s" % argv
    c = ["--config", str(cfg)]
    step(["gen-data", *c, "--out-dir", str(data)])
    step(["train-proposals", *c, "--data", str(data), "--out-dir", str(run)])
    step(["score-events", *c, "--data", str(data),
          "--model", str(run / "mil.ckpt"),
          "--features", str(run / "stage1_features.json"),
          "--out", str(run / "scores.csv")])
    step(["extract-proposals", *c, "--data", str(data),
          "--scores", str(run / "scores.csv"),
          "--model", str(run / "mil.ckpt"),
          "--out", str(run / "proposals.json")])
    step(["train-hma", *c, "--data", str(data),
          "--proposals", str(run / "proposals.json"),
          "--out-dir", str(run)])
    step(["summarize", *c, "--data", str(data),
          "--proposals", str(run / "proposals.json"),
          "--model", str(run / "hma.ckpt"),
          "--out-dir", str(run)])
    return SimpleNamespace(root=root, cfg=cfg, data=data, run=run)


# ---------------------------------------------------------------------------
# exit codes

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["replay-highlights"])
    assert exc.value.code == 1


def test_missing_required_option_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["gen-data"])
    assert exc.value.code == 1


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gen.referees = 3\n")
    rc = main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gen.matches = banana\n")
    rc = main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])
    assert rc == 1


def test_missing_data_dir_exits_two(tmp_path, capsys):
    rc = main(["evaluate", "--data", str(tmp_path / "nowhere"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "soccersum"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage" in proc.stderr


def test_cli_import_loads_no_scipy():
    code = ("import sys, soccersum.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_import_pins_blas_threads_unless_set(preset):
    """``import soccersum`` loads no numpy, so the pin in ``soccersum.cli``
    comes before numpy starts its BLAS; a count the caller set wins."""
    code = ("import os, sys, soccersum; print('numpy' in sys.modules); "
            "import soccersum.cli; print(os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", preset or "1"]


def test_jobs_below_one_exits_one(chain, tmp_path, capsys):
    rc = main(["train-proposals", "--config", str(chain.cfg), "--data", str(chain.data),
               "--out-dir", str(tmp_path / "run"), "--jobs", "-3"])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# every stage-1 key, and the qualifier width the stage-1 encoder reads
STAGE1_KEYS = ["stage1.hidden", "stage1.window", "stage1.stride", "stage1.lse_r",
               "stage1.epochs", "stage1.patience", "stage1.batch", "stage1.lr",
               "stage1.neg_min_len", "stage1.beta", "features.qualifier_dims"]


def test_stage1_keys_are_all_listed():
    from soccersum.config import KNOWN_KEYS
    assert {k for k in KNOWN_KEYS if k.startswith("stage1.")} <= set(STAGE1_KEYS)


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("key", STAGE1_KEYS)
def test_stage1_value_outside_its_domain_exits_one(chain, tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("include %s\n%s = %s\n" % (chain.cfg, key, value))
    rc = main(["train-proposals", "--config", str(cfg), "--data", str(chain.data),
               "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert "configuration error" in err and repr(key) in err
    assert not (tmp_path / "run").exists()


# every other key with a numeric domain -> values outside it
OUT_OF_DOMAIN = {
    **{key: ["0", "-1", "nan", "inf"] for key in [
        "stage2.hidden_modality", "stage2.hidden_fusion", "stage2.epochs",
        "stage2.patience", "stage2.batch", "stage3.samples", "eval.folds",
        "stage2.lr", "eval.beta"]},
    **{key: ["0", "-1", "nan", "inf"] for key in [
        "gen.matches", "gen.events_mean", "gen.goals_min", "gen.goals_max"]},
    "eval.kfold": ["0", "-1", "nan", "inf", "2"],
    "gen.audio_rate": ["0", "-1", "nan", "inf", "1", "199"],
    **{key: ["-1", "nan", "inf", "-1e-9"] for key in [
        "pad.pre", "pad.post", "stage3.sigma", "stage3.budget_tol", "gen.budget_min",
        "gen.budget_max", "gen.audio_gain", "gen.audio_base_amp"]},
    **{key: ["-1", "nan", "inf", "-1e-9", "1.5", "2"] for key in [
        "gen.noise_insert", "gen.noise_swap"]},
    "stage2.overlap_ratio": ["0", "-1", "nan", "inf", "1.5", "2"],
    "seed": ["-1"],
}
# the lowest value inside each domain
DOMAIN_FLOOR = {"seed": "0", "eval.kfold": "3", "gen.audio_rate": "200", "stage2.lr": "1e-300",
                "eval.beta": "1e-300", "stage2.overlap_ratio": "1e-300", **dict.fromkeys([
                    "pad.pre", "pad.post", "stage3.sigma", "stage3.budget_tol",
                    "gen.budget_min", "gen.budget_max", "gen.audio_gain",
                    "gen.audio_base_amp", "gen.noise_insert", "gen.noise_swap"], "0")}


@pytest.mark.parametrize("key, value", [(k, v) for k, vs in OUT_OF_DOMAIN.items() for v in vs])
def test_value_outside_its_domain_exits_one(chain, tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("include %s\n%s = %s\n" % (chain.cfg, key, value))
    rc = main(["e2e", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert "configuration error" in err and repr(key) in err
    assert not (tmp_path / "run").exists()


def test_domain_floors_are_accepted():
    from soccersum.config import PipelineConfig
    for key in OUT_OF_DOMAIN:
        PipelineConfig().set(key, DOMAIN_FLOOR.get(key, "1"))
    for key in ["gen.noise_insert", "gen.noise_swap", "stage2.overlap_ratio"]:
        PipelineConfig().set(key, "1")


@pytest.mark.parametrize("command", ["gen-data", "e2e"])
@pytest.mark.parametrize("low, high, values", [
    pytest.param("gen.budget_min", "gen.budget_max", "gen.budget_min = 300", id="budget-300-270"),
    pytest.param("gen.budget_min", "gen.budget_max", "gen.budget_max = 100", id="budget-110-100"),
    pytest.param("gen.goals_min", "gen.goals_max", "gen.goals_min = 5", id="goals-5-3"),
    pytest.param("gen.goals_min", "gen.goals_max", "gen.goals_min = 2\ngen.goals_max = 1",
                 id="goals-2-1"),
    pytest.param("stage1.stride", "stage1.window", "stage1.stride = 11", id="stride-11-10"),
])
def test_lower_bound_above_upper_bound_exits_one(chain, tmp_path, capsys, command, low,
                                                 high, values):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("include %s\n%s\n" % (chain.cfg, values))
    rc = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert "configuration error" in err and repr(low) in err and repr(high) in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["e2e", "train-proposals"])
def test_more_folds_than_matches_exits_one(chain, tmp_path, capsys, command):
    """The fold count is checked against the match count as soon as both
    are known: for e2e, the configured 6 matches, before any data is
    generated or written; for train-proposals, the chain's 10."""
    cfg = tmp_path / "folds.cfg"
    if command == "e2e":
        cfg.write_text("include %s\ngen.matches = 6\neval.kfold = 10\n" % chain.cfg)
        args = ["e2e"]
    else:
        cfg.write_text("include %s\neval.kfold = 11\n" % chain.cfg)
        args = ["train-proposals", "--data", str(chain.data)]
    rc = main(args + ["--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    n = 6 if command == "e2e" else 10
    assert "configuration error" in err and "'eval.kfold'" in err and "%d matches" % n in err
    assert not (tmp_path / "run" / "fold_000").exists()
    assert not (tmp_path / "run" / "data").exists()


def test_negative_length_no_unlabeled_run_fills_exits_one(chain, tmp_path, capsys):
    """A ``stage1.neg_min_len`` above every run of unlabeled training
    events is refused before any bag is drawn, naming the key."""
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("include %s\nstage1.neg_min_len = 1000\n" % chain.cfg)
    rc = main(["train-proposals", "--config", str(cfg), "--data", str(chain.data),
               "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert re.search(r"configuration error: key 'stage1.neg_min_len': 1000 is above \d+, "
                     r"the longest run of unlabeled events", err), err
    assert not (tmp_path / "run").exists()


def test_e2e_configuration_error_writes_nothing(chain, tmp_path, capsys):
    """A configuration error found once the run has started, as the
    ``stage1.neg_min_len`` refusal is, leaves no output directory: e2e
    saves its dataset only after the run."""
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("include %s\nstage1.neg_min_len = 1000\n" % chain.cfg)
    rc = main(["e2e", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert "configuration error: key 'stage1.neg_min_len'" in err
    assert not (tmp_path / "run").exists()


def test_summary_action_of_an_unknown_type_exits_two(chain, tmp_path, capsys):
    """A ground-truth action no prediction could ever match is refused at
    load, naming its file and record."""
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    path = sorted((data / "summaries").iterdir())[0]
    actions = json.loads(path.read_text())
    actions[0]["type"] = "penalty"
    path.write_text(json.dumps(actions))
    rc = main(["train-proposals", "--config", str(chain.cfg), "--data", str(data),
               "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert repr(path.name) in err and repr(actions[0]) in err and "'penalty'" in err
    assert not (tmp_path / "run").exists()


def test_equal_bounds_generate(tmp_path):
    cfg = tmp_path / "equal.cfg"
    cfg.write_text("gen.matches = 2\ngen.events_mean = 250\ngen.goals_min = 2\n"
                   "gen.goals_max = 2\ngen.budget_min = 150\ngen.budget_max = 150\n")
    assert main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 0


def test_unfillable_budget_exits_one_naming_its_keys(tmp_path, capsys):
    cfg = tmp_path / "pad0.cfg"
    cfg.write_text("gen.matches = 3\ngen.events_mean = 300\npad.pre = 0\npad.post = 0\n")
    rc = main(["gen-data", "--config", str(cfg), "--seed", "7",
               "--out-dir", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert err.startswith("configuration error: ") and "unfillable" in err
    for key in ("gen.budget_min", "gen.budget_max", "pad.pre", "pad.post",
                "gen.events_mean"):
        assert key in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("how", ["flag", "environment"])
def test_negative_seed_exits_one(tmp_path, capsys, monkeypatch, how):
    argv = ["gen-data", "--out-dir", str(tmp_path / "d")]
    if how == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("SOCCERSUM_SEED", "-1")
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err and "configuration error: key 'seed'" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("how", ["config", "include"])
def test_config_path_that_cannot_be_read_exits_one(chain, tmp_path, capsys, how):
    folder = tmp_path / "folder.cfg"
    folder.mkdir()
    cfg = folder
    if how == "include":
        cfg = tmp_path / "top.cfg"
        cfg.write_text("include %s\n" % folder)
    rc = main(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "d")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "Traceback" not in err
    assert "configuration error" in err and "%s: cannot read" % folder in err
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------------------
# generation

def test_gen_data_deterministic_bytes(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_GEN)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--config", str(cfg), "--out-dir", str(a)]) == 0
    assert main(["gen-data", "--config", str(cfg), "--out-dir", str(b)]) == 0
    for rel in ("dataset.json", "events.jsonl", "summaries/m000.json",
                "summaries/m001.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_gen_data_honors_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOCCERSUM_GEN_MATCHES", "2")
    monkeypatch.setenv("SOCCERSUM_GEN_EVENTS_MEAN", "250")
    out = tmp_path / "d"
    assert main(["gen-data", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "dataset.json").read_text())
    assert len(manifest["matches"]) == 2


# ---------------------------------------------------------------------------
# piecewise chain

def test_chain_artifacts_exist(chain):
    for rel in ("mil.ckpt", "stage1_features.json", "scores.csv",
                "proposals.json", "hma.ckpt", "theta.csv"):
        path = chain.run / rel
        assert path.exists() and path.stat().st_size > 0, rel
    cand_files = sorted(os.listdir(chain.run / "candidates"))
    assert cand_files, "no candidate files written"
    assert all(name.endswith(".json") for name in cand_files)


def test_readme_lists_every_artifact_kind():
    """README's Artifacts table names each ``ARTIFACTS`` path once, and nothing else."""
    from soccersum.artifacts import ARTIFACTS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Artifacts\n")[1].split("\n## ")[0]
    listed = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert sorted(listed) == sorted(path for path, _ in ARTIFACTS.values())


def test_scores_and_theta_carry_provenance(chain):
    for rel in ("scores.csv", "theta.csv"):
        first = (chain.run / rel).read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        assert "seed=7" in first


def test_proposals_payload_shape(chain):
    payload = json.loads((chain.run / "proposals.json").read_text())
    assert payload["seed"] == 7
    assert payload["matches"], "no proposals extracted"
    for spans in payload["matches"].values():
        for p in spans:
            assert p["start_index"] <= p["end_index"]
            assert isinstance(p["type"], str)


def test_candidate_payload_shape(chain):
    files = sorted(os.listdir(chain.run / "candidates"))
    payload = json.loads((chain.run / "candidates" / files[0]).read_text())
    assert payload["budget"] > 0
    cands = payload["candidates"]
    assert [c["sample_index"] for c in cands] == list(range(10))
    for c in cands:
        starts = [pick["start_index"] for pick in c["chosen"]]
        assert starts == sorted(starts)


def test_stale_artifacts_are_rejected(chain, capsys):
    rc = main(["score-events", "--config", str(chain.cfg), "--seed", "8",
               "--data", str(chain.data),
               "--model", str(chain.run / "mil.ckpt"),
               "--features", str(chain.run / "stage1_features.json"),
               "--out", str(chain.run / "scores2.csv")])
    assert rc == 2
    assert "provenance mismatch" in capsys.readouterr().err
    assert not (chain.run / "scores2.csv").exists()


@pytest.mark.parametrize("command", ["score-events", "summarize", "extract-features"])
def test_unknown_match_id_exits_two(chain, tmp_path, capsys, command):
    run = chain.run
    artifacts = {
        "score-events": ["--model", str(run / "mil.ckpt"),
                         "--features", str(run / "stage1_features.json"),
                         "--out", str(tmp_path / "scores.csv")],
        "summarize": ["--proposals", str(run / "proposals.json"),
                      "--model", str(run / "hma.ckpt"), "--out-dir", str(tmp_path)],
        "extract-features": ["--out-dir", str(tmp_path)],
    }[command]
    rc = main([command, "--config", str(chain.cfg), "--data", str(chain.data),
               "--matches", "m000,nope", *artifacts])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_match_without_summary_exits_two(chain, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    (data / "summaries" / "m009.json").unlink()
    rc = main(["train-proposals", "--config", str(chain.cfg), "--data", str(data),
               "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    assert "m009" in capsys.readouterr().err


def test_events_file_that_cannot_be_read_exits_two(chain, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    (data / "events.jsonl").unlink()
    (data / "events.jsonl").mkdir()
    rc = main(["train-proposals", "--config", str(chain.cfg), "--data", str(data),
               "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err and "error: events.jsonl: cannot read" in err
    assert not (tmp_path / "run").exists()


def _fold_ids(chain):
    """The (train, validation, test) match ids of fold 0 of the chain."""
    from soccersum.config import load_config
    from soccersum.io import load_dataset
    from soccersum.pipeline import prepare_fold
    ctx = prepare_fold(load_dataset(str(chain.data)), load_config(str(chain.cfg)), 0)
    return ctx.train_ids, ctx.val_ids, ctx.test_ids


def _proposals_without(chain, tmp_path, match_id):
    """A copy of the chain's proposals file that lists no ``match_id``."""
    payload = json.loads((chain.run / "proposals.json").read_text())
    del payload["matches"][match_id]
    path = tmp_path / "proposals.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("command", ["train-hma", "summarize"])
def test_proposals_without_a_needed_match_exit_two(chain, tmp_path, capsys, command):
    train_ids, _val_ids, test_ids = _fold_ids(chain)
    dropped = train_ids[0] if command == "train-hma" else test_ids[0]
    proposals = _proposals_without(chain, tmp_path, dropped)
    model = ["--model", str(chain.run / "hma.ckpt")] if command == "summarize" else []
    rc = main([command, "--config", str(chain.cfg), "--data", str(chain.data),
               "--proposals", str(proposals), *model, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert err == "error: %s: match %r is not listed\n" % (proposals, dropped)
    assert not (tmp_path / "out").exists()


def test_summarize_needs_only_the_matches_it_ranks(chain, tmp_path):
    """A proposals file need not list the matches a command does not read,
    as after ``score-events --matches``."""
    train_ids, _val_ids, test_ids = _fold_ids(chain)
    proposals = _proposals_without(chain, tmp_path, train_ids[0])
    rc = main(["summarize", "--config", str(chain.cfg), "--data", str(chain.data),
               "--proposals", str(proposals), "--model", str(chain.run / "hma.ckpt"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    for i in test_ids:
        assert ((tmp_path / "out" / "candidates" / ("%s.json" % i)).read_bytes()
                == (chain.run / "candidates" / ("%s.json" % i)).read_bytes())


@pytest.mark.parametrize("keep", [12, -5])  # cut inside the header / the last payload
def test_truncated_checkpoint_exits_two(chain, tmp_path, capsys, keep):
    ckpt = tmp_path / "mil.ckpt"
    ckpt.write_bytes((chain.run / "mil.ckpt").read_bytes()[:keep])
    rc = main(["score-events", "--config", str(chain.cfg), "--data", str(chain.data),
               "--model", str(ckpt),
               "--features", str(chain.run / "stage1_features.json"),
               "--out", str(tmp_path / "scores.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "truncated" in err and "Traceback" not in err
    assert not (tmp_path / "scores.csv").exists()


@pytest.mark.parametrize("fault", ["nan", "inf", "duplicate", "missing", "negative",
                                   "unknown-match", "short", "score-5", "score-minus-3"])
def test_malformed_scores_exit_two(chain, tmp_path, capsys, fault):
    lines = (chain.run / "scores.csv").read_text().splitlines()
    match_id, idx, score = lines[5].split(",")  # event 3 of the first match
    lines[5] = {
        "nan": "%s,%s,nan" % (match_id, idx),
        "inf": "%s,%s,inf" % (match_id, idx),
        "duplicate": "%s,2,%s" % (match_id, score),
        "missing": None,
        "negative": "%s,-3,%s" % (match_id, score),
        # a row of a match the dataset does not hold, after the kept row
        "unknown-match": "%s\nzzz,0,%s" % (lines[5], score),
        "short": lines[5],
        "score-5": "%s,%s,5.0" % (match_id, idx),
        "score-minus-3": "%s,%s,-3.0" % (match_id, idx),
    }[fault]
    if fault == "short":  # the match's last row: its indices still run 0..n-2
        lines[max(i for i, line in enumerate(lines) if line.startswith(match_id + ","))] = None
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(line for line in lines if line is not None) + "\n")
    out = tmp_path / "proposals.json"
    rc = main(["extract-proposals", "--config", str(chain.cfg), "--data", str(chain.data),
               "--scores", str(scores), "--model", str(chain.run / "mil.ckpt"),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(scores) in err and "Traceback" not in err
    assert not out.exists()
    if fault == "short":
        assert repr(match_id) in err


@pytest.mark.parametrize("fault", ["version-2", "trailing-bytes"])
def test_checkpoint_header_fault_names_the_file(chain, tmp_path, capsys, fault):
    raw = (chain.run / "mil.ckpt").read_bytes()
    ckpt = tmp_path / "mil.ckpt"
    # the format version is the 4 bytes after the 8-byte magic
    ckpt.write_bytes(raw[:8] + (2).to_bytes(4, "little") + raw[12:] if fault == "version-2"
                     else raw + bytes(8))
    rc = main(["score-events", "--config", str(chain.cfg), "--data", str(chain.data),
               "--model", str(ckpt),
               "--features", str(chain.run / "stage1_features.json"),
               "--out", str(tmp_path / "scores.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert str(ckpt) in err and "Traceback" not in err
    assert ("version 2" if fault == "version-2" else "8 trailing bytes") in err


def _extract_at(chain, threshold, out):
    return main(["extract-proposals", "--config", str(chain.cfg), "--data", str(chain.data),
                 "--scores", str(chain.run / "scores.csv"),
                 "--model", str(chain.run / "mil.ckpt"),
                 "--threshold=" + threshold, "--out", str(out)])


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "1.5"])
def test_threshold_outside_the_unit_interval_exits_one(chain, tmp_path, capsys, value):
    """Stage-1 scores lie in (0, 1): any other --threshold is a usage error."""
    out = tmp_path / "proposals.json"
    with pytest.raises(SystemExit) as exc:
        _extract_at(chain, value, out)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert "--threshold" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "1"])
def test_threshold_bounds_are_accepted(chain, tmp_path, value):
    assert _extract_at(chain, value, tmp_path / "proposals.json") == 0


@pytest.mark.parametrize("t", ["-0.5", "NaN"])
def test_bad_event_time_exits_two(chain, tmp_path, capsys, t):
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    lines = (data / "events.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    lines[3] = json.dumps(rec).replace('"t": %s' % json.dumps(rec["t"]), '"t": %s' % t)
    (data / "events.jsonl").write_text("\n".join(lines) + "\n")
    rc = main(["extract-features", "--config", str(chain.cfg), "--data", str(data), "--audio",
               "--out-dir", str(tmp_path / "feats")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 4" in err and "Traceback" not in err


def _edited_data(chain, tmp_path, edit):
    """A copy of the chain's dataset with ``edit(records)`` applied to the
    parsed lines of events.jsonl."""
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    recs = [json.loads(line) for line in (data / "events.jsonl").read_text().splitlines()]
    edit(recs)
    (data / "events.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
    return data


def _time_goes_back(recs):
    i = next(i for i in range(1, len(recs)) if recs[i - 1]["t"] > 200.0)
    recs[i]["t"] = recs[i - 1]["t"] - 173.0


def _set_fourth(**fields):
    return lambda recs: recs[3].update(fields)


# defect -> (edit of the parsed lines, text the error names): a rule of one
# event names its line, a rule of a whole match the match and event index
EVENT_DEFECTS = {
    "team": (_set_fourth(team=2), "events.jsonl line 4: team and outcome"),
    "team-negative": (_set_fourth(team=-1), "events.jsonl line 4: team and outcome"),
    "coord": (_set_fourth(sx=250.0), "events.jsonl line 4: sx, sy, ex, ey"),
    **{"%s-%s" % (f, v): (_set_fourth(**{f: v}), "events.jsonl line 4: sx, sy, ex, ey")
       for f in ("sx", "sy", "ex", "ey") for v in (-0.5, 100.5)},
    "outcome": (_set_fourth(outcome=7), "events.jsonl line 4: team and outcome"),
    "type": (_set_fourth(type="header"), "events.jsonl line 4: event type 'header'"),
    "t-negative": (_set_fourth(t=-0.5), "events.jsonl line 4: event time"),
    "time": (_time_goes_back, "match 'm000', event "),
}


@pytest.mark.parametrize("defect", sorted(EVENT_DEFECTS))
def test_invalid_event_exits_two(chain, tmp_path, capsys, defect):
    edit, named = EVENT_DEFECTS[defect]
    data = _edited_data(chain, tmp_path, edit)
    rc = main(["train-proposals", "--config", str(chain.cfg), "--data", str(data),
               "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def _edit_manifest(edit):
    def apply(raw):
        manifest = json.loads(raw)
        edit(manifest)
        return json.dumps(manifest).encode()
    return apply


# defect -> (file, edit of its bytes, text the error names)
MALFORMED_FILES = {
    "summary-json": ("summaries/m000.json", lambda raw: b"{broken", "m000.json"),
    "truncated-manifest": ("dataset.json", lambda raw: raw[: len(raw) // 2], "dataset.json"),
    "non-numeric-field": ("events.jsonl",
                          lambda raw: raw.replace(b'"sx": ', b'"sx": "abc", "was": ', 1),
                          "events.jsonl line 1"),
    "non-integer-field": ("events.jsonl",
                          lambda raw: raw.replace(b'"team": ', b'"team": 0.9, "was": ', 1),
                          "events.jsonl line 1: team 0.9 is not a JSON integer"),
    "not-utf8": ("events.jsonl", lambda raw: raw.replace(b'"ey": ', b'"ey\xff": ', 1),
                 "events.jsonl line 1"),
    # a JSON integer longer than Python converts, and nesting deeper than
    # the recursion limit: the decoder raises ValueError and RecursionError
    "integer-too-long": ("events.jsonl",
                         lambda raw: raw.replace(b'"player": ', b'"player": ' + b"9" * 5000
                                                 + b', "was": ', 1),
                         "events.jsonl line 1: Exceeds the limit"),
    "event-line-too-deep": ("events.jsonl", lambda raw: b"[" * 3000 + b"\n" + raw,
                            "events.jsonl line 1: maximum recursion depth"),
    "summary-too-deep": ("summaries/m000.json",
                         lambda raw: b"[" * 100000 + b"]" * 100000,
                         "summary 'm000.json': not valid JSON (maximum recursion depth"),
    "one-direction": ("dataset.json", _edit_manifest(
        lambda m: m["matches"][0].update(attack_right_first=[True])), "dataset.json"),
    "listed-twice": ("dataset.json", _edit_manifest(
        lambda m: m["matches"].append(m["matches"][0])), "dataset.json"),
}


@pytest.mark.parametrize("defect", sorted(MALFORMED_FILES))
def test_malformed_dataset_file_exits_two(chain, tmp_path, capsys, defect):
    rel, edit, named = MALFORMED_FILES[defect]
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    (data / rel).write_bytes(edit((data / rel).read_bytes()))
    rc = main(["train-proposals", "--config", str(chain.cfg), "--data", str(data),
               "--out-dir", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert named in err and "Traceback" not in err


SPEC_EDITS = {
    "seed-element-dropped": lambda spec: spec.update(seed=spec["seed"][1:]),
    "no-stream": lambda spec: spec.pop("stream"),
    "stream-1": lambda spec: spec.update(stream=1),
}


@pytest.mark.parametrize("edit", sorted(SPEC_EDITS))
def test_malformed_audio_spec_exits_two(chain, tmp_path, capsys, edit):
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    manifest = json.loads((data / "dataset.json").read_text())
    SPEC_EDITS[edit](manifest["matches"][0]["audio"]["synth"])
    (data / "dataset.json").write_text(json.dumps(manifest, indent=1))
    rc = main(["extract-features", "--config", str(chain.cfg), "--data", str(data), "--audio",
               "--matches", "m000", "--out-dir", str(tmp_path / "feats")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "'m000'" in err and "Traceback" not in err


def _data_with_audio(chain, tmp_path, kind, rate):
    """A copy of the chain's dataset whose m000 audio is a synth spec, a raw
    file or a WAV file at ``rate`` Hz."""
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    manifest = json.loads((data / "dataset.json").read_text())
    entry = manifest["matches"][0]
    noise = np.random.default_rng(5).normal(scale=0.1, size=60 * rate)
    if kind == "synth":
        entry["audio"]["synth"]["rate"] = rate
    elif kind == "raw":
        noise.astype("<f4").tofile(str(tmp_path / "audio.f32"))
        entry["audio"] = {"file": str(tmp_path / "audio.f32"), "rate": rate}
    else:
        from scipy.io import wavfile

        wavfile.write(str(tmp_path / "audio.wav"), rate, (noise * 32767).astype(np.int16))
        entry["audio"] = str(tmp_path / "audio.wav")
    (data / "dataset.json").write_text(json.dumps(manifest, indent=1))
    return data


def _extract_audio(chain, data, out):
    return main(["extract-features", "--config", str(chain.cfg), "--data", str(data),
                 "--audio", "--matches", "m000", "--out-dir", str(out)])


@pytest.mark.parametrize("kind, rate", [("synth", 10), ("synth", 100), ("synth", 199),
                                        ("raw", 100), ("wav", 100)])
def test_audio_below_the_rate_floor_exits_two(chain, tmp_path, capsys, kind, rate):
    data = _data_with_audio(chain, tmp_path, kind, rate)
    rc = _extract_audio(chain, data, tmp_path / "feats")
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "sample rate %d is not an integer of at least 200 Hz" % rate in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["synth", "raw", "wav"])
def test_audio_at_the_rate_floor_is_read(chain, tmp_path, kind):
    data = _data_with_audio(chain, tmp_path, kind, 200)
    assert _extract_audio(chain, data, tmp_path / "feats") == 0


@pytest.mark.parametrize("content", [None, b"RIFF\x00\x00"], ids=["missing", "riff-header-only"])
def test_unreadable_wav_audio_exits_two(chain, tmp_path, capsys, content):
    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    wav = tmp_path / "nope.wav"
    if content is not None:
        wav.write_bytes(content)
    manifest = json.loads((data / "dataset.json").read_text())
    manifest["matches"][0]["audio"] = str(wav)
    (data / "dataset.json").write_text(json.dumps(manifest, indent=1))
    rc = main(["extract-features", "--config", str(chain.cfg), "--data", str(data), "--audio",
               "--matches", "m000", "--out-dir", str(tmp_path / "feats")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert str(wav) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["extract-features", "summarize"])
def test_non_finite_audio_sample_exits_two(chain, tmp_path, capsys, command):
    """A raw track with a NaN in an event's window is a data error naming the
    match and the event time, whichever command reads the window."""
    from soccersum.io import load_dataset

    data = tmp_path / "data"
    shutil.copytree(chain.data, data)
    manifest = json.loads((data / "dataset.json").read_text())
    if command == "summarize":  # the first proposed event of a summarized match
        proposals = json.loads((chain.run / "proposals.json").read_text())["matches"]
        summarized = sorted(p.stem for p in (chain.run / "candidates").iterdir())
        match_id = next(m for m in summarized if proposals.get(m))
        first = min(p["start_index"] for p in proposals[match_id])
    else:
        match_id, first = "m000", 0
    t = load_dataset(str(data)).by_id(match_id).events[first].t
    track = np.random.default_rng(8).normal(scale=0.1, size=int((t + 3.0) * 8000))
    track[int((t + 1.0) * 8000)] = np.nan
    track.astype("<f4").tofile(str(tmp_path / "nan.f32"))
    entry = next(m for m in manifest["matches"] if m["match_id"] == match_id)
    entry["audio"] = {"file": str(tmp_path / "nan.f32"), "rate": 8000}
    (data / "dataset.json").write_text(json.dumps(manifest, indent=1))
    c = ["--config", str(chain.cfg), "--data", str(data)]
    if command == "summarize":
        argv = ["summarize", *c, "--proposals", str(chain.run / "proposals.json"),
                "--model", str(chain.run / "hma.ckpt"), "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["extract-features", *c, "--audio", "--matches", match_id,
                "--out-dir", str(tmp_path / "out")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert repr(match_id) in err and "t=%r s" % t in err and "not finite" in err


PROPOSAL_DEFECTS = {
    "unknown-match": lambda m: {"nope": [{"start_index": 0, "end_index": 1, "type": "goal"}]},
    "non-integer": lambda m: {m: [{"start_index": 0, "end_index": 1.5, "type": "goal"}]},
    "past-the-end": lambda m: {m: [{"start_index": 0, "end_index": 100000, "type": "goal"}]},
    "negative": lambda m: {m: [{"start_index": -1, "end_index": 2, "type": "goal"}]},
    "start-after-end": lambda m: {m: [{"start_index": 5, "end_index": 4, "type": "goal"}]},
    "unknown-type": lambda m: {m: [{"start_index": 0, "end_index": 1, "type": "header"}]},
}


@pytest.mark.parametrize("command", ["train-hma", "summarize"])
@pytest.mark.parametrize("defect", sorted(PROPOSAL_DEFECTS))
def test_malformed_proposals_exit_two(chain, tmp_path, capsys, command, defect):
    payload = json.loads((chain.run / "proposals.json").read_text())
    match_id = sorted(payload["matches"])[0]
    payload["matches"].update(PROPOSAL_DEFECTS[defect](match_id))
    proposals = tmp_path / "proposals.json"
    proposals.write_text(json.dumps(payload))
    extra = {"train-hma": [], "summarize": ["--model", str(chain.run / "hma.ckpt")]}[command]
    rc = main([command, "--config", str(chain.cfg), "--data", str(chain.data),
               "--proposals", str(proposals), "--out-dir", str(tmp_path / "out"), *extra])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(proposals) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fold", ["5", "-1"])
def test_fold_outside_the_split_exits_one(chain, tmp_path, capsys, fold):
    rc = main(["train-proposals", "--config", str(chain.cfg), "--data", str(chain.data),
               "--out-dir", str(tmp_path / "run"), "--fold", fold])
    assert rc == 1
    assert "fold %s is outside 0..4" % fold in capsys.readouterr().err


def test_evaluate_writes_protocol_results(chain, tmp_path, capsys):
    out = tmp_path / "protocol"
    rc = main(["evaluate", "--config", str(chain.cfg),
               "--data", str(chain.data), "--out-dir", str(out)])
    assert rc == 0
    for rel in ("results/stage1.csv", "results/selection.csv",
                "results/ranking.csv", "results/results.txt"):
        assert (out / rel).exists(), rel
    text = capsys.readouterr().out
    assert "stage" in text.lower() or "selection" in text.lower()


def test_evaluate_fold_matches_piecewise_chain(chain, tmp_path):
    """The protocol's fold 0 and the piecewise subcommands share one stage
    wiring, so they write the same bytes for the same config and seed."""
    out = tmp_path / "protocol"
    assert main(["evaluate", "--config", str(chain.cfg),
                 "--data", str(chain.data), "--out-dir", str(out)]) == 0
    fold = out / "fold_000"
    for rel in ("mil.ckpt", "hma.ckpt", "stage1_features.json", "scores.csv",
                "proposals.json"):
        assert (fold / rel).read_bytes() == (chain.run / rel).read_bytes(), rel
    names = sorted(os.listdir(chain.run / "candidates"))
    assert names == sorted(os.listdir(fold / "candidates"))
    for name in names:
        assert ((fold / "candidates" / name).read_bytes()
                == (chain.run / "candidates" / name).read_bytes()), name
    test_ids = {name[: -len(".json")] for name in names}
    fold_theta = (fold / "theta.csv").read_text().splitlines()
    test_rows = fold_theta[:2] + [row for row in fold_theta[2:]
                                  if row.split(",")[0] in test_ids]
    assert test_rows == (chain.run / "theta.csv").read_text().splitlines()


def test_protocol_folds_equal_separate_run_fold_calls(chain, tmp_path):
    """run_protocol and run_fold run the same three phases; over two folds
    the audio phase computes the union of their events in one pass, yet
    each fold directory holds the bytes run_fold writes for that fold
    alone.  Neither call keeps the dataset once it returns."""
    from soccersum import pipeline
    from soccersum.config import load_config
    from soccersum.io import load_dataset
    from soccersum.artifacts import read_proposals_json
    from soccersum.pipeline import proposal_events, run_fold, run_protocol

    seed = 5  # its two folds need audio events that the other does not
    cfg = load_config(str(chain.cfg), {"seed": seed, "jobs": 2, "eval.folds": 2}, use_env=False)
    dataset = load_dataset(str(chain.data))
    run_protocol(dataset, cfg, out_dir=str(tmp_path / "protocol"))
    assert pipeline._DATASET is None
    for k in range(2):
        run_fold(dataset, cfg, k, seed, out_dir=str(tmp_path / "single"))
        assert pipeline._DATASET is None
    ids = dataset.match_ids()
    needed = [proposal_events(read_proposals_json(
        str(tmp_path / "single" / ("fold_%03d" % k) / "proposals.json"), dataset)[1], ids)
        for k in range(2)]
    for a, b in ((0, 1), (1, 0)):
        assert any(set(needed[a][i]) - set(needed[b][i]) for i in ids), \
            "fold %d needs no event beyond fold %d's: choose another seed" % (a, b)
    for k in range(2):
        fold = "fold_%03d" % k
        files = sorted(os.path.relpath(os.path.join(d, f), tmp_path / "single" / fold)
                       for d, _dirs, names in os.walk(tmp_path / "single" / fold)
                       for f in names)
        assert "hma.ckpt" in files and any(f.startswith("candidates") for f in files)
        for rel in files:
            assert ((tmp_path / "protocol" / fold / rel).read_bytes()
                    == (tmp_path / "single" / fold / rel).read_bytes()), (fold, rel)


def test_run_fold_artifacts_carry_the_seed_they_were_drawn_from(chain, tmp_path):
    """run_fold runs a copy of its config with its ``seed`` set, so the
    fold's files carry that seed's config hash and the CLI accepts them
    under ``--seed``."""
    from soccersum.artifacts import Provenance, load_model_checkpoint, read_scores_csv
    from soccersum.config import load_config
    from soccersum.io import load_dataset
    from soccersum.pipeline import run_fold

    cfg = load_config(str(chain.cfg), {}, use_env=False)
    seed = 3
    assert cfg["seed"] != seed
    run_fold(load_dataset(str(chain.data)), cfg, 0, seed, out_dir=str(tmp_path))
    fold = tmp_path / "fold_000"
    want = Provenance.of(load_config(str(chain.cfg), {"seed": seed}, use_env=False))
    assert read_scores_csv(str(fold / "scores.csv"))[0] == want
    assert load_model_checkpoint(str(fold / "mil.ckpt"))[1] == want
    result = json.loads((fold / "fold_result.json").read_text())
    assert (result["config_hash"], result["seed"]) == (want.config_hash, seed)
    out = tmp_path / "proposals.json"
    assert main(["extract-proposals", "--config", str(chain.cfg), "--seed", str(seed),
                 "--data", str(chain.data), "--scores", str(fold / "scores.csv"),
                 "--model", str(fold / "mil.ckpt"), "--out", str(out)]) == 0
    assert out.read_bytes() == (fold / "proposals.json").read_bytes()


def test_more_folds_than_kfold_runs_kfold_folds(chain, tmp_path):
    """``eval.folds`` above ``eval.kfold`` runs every one of the k folds once."""
    cfg = tmp_path / "folds.cfg"
    cfg.write_text(TINY.replace("eval.kfold = 5", "eval.kfold = 3")
                   .replace("eval.folds = 1", "eval.folds = 50"))
    out = tmp_path / "run"
    assert main(["evaluate", "--config", str(cfg), "--data", str(chain.data),
                 "--out-dir", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["fold_000", "fold_001", "fold_002", "results"]


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_train_log_rows_equal_the_training_history(chain, tmp_path, monkeypatch):
    """A fold's train_log.jsonl: provenance, each stage's history rows, then
    its best epoch and stop reason; a rerun writes the same bytes."""
    from soccersum import pipeline
    from soccersum.config import load_config
    from soccersum.io import load_dataset

    models = {}
    for stage, name in (("stage1", "train_proposal_model"), ("stage2", "train_proposal_scorer")):
        def capture(*args, _stage=stage, _train=getattr(pipeline, name)):
            models[_stage] = _train(*args)
            return models[_stage]
        monkeypatch.setattr(pipeline, name, capture)
    cfg = load_config(str(chain.cfg), {}, use_env=False)
    dataset = load_dataset(str(chain.data))
    logs = []
    for run in ("a", "b"):
        pipeline.run_fold(dataset, cfg, 0, 7, out_dir=str(tmp_path / run))
        logs.append(tmp_path / run / "fold_000" / "train_log.jsonl")
    assert logs[0].read_bytes() == logs[1].read_bytes()
    want = [{"config_hash": cfg.config_hash(), "seed": 7}]
    for stage, model in models.items():
        assert model.history and model.stop
        want += [dict(row, stage=stage) for row in model.history]
        want.append({"stage": stage, "best_epoch": model.best_epoch, "stop": model.stop})
    assert _read_jsonl(logs[0]) == want


def test_train_log_writes_each_stop_reason(tmp_path):
    from soccersum.artifacts import Provenance, write_train_log
    from soccersum.neural.optim import STOP_REASONS

    history = [{"epoch": 0, "loss": np.float32(0.5), "val_f": 0.25, "threshold": 0.3}]
    models = {"stage%d" % k: SimpleNamespace(history=history, best_epoch=0, stop=stop)
              for k, stop in enumerate(STOP_REASONS)}
    write_train_log(str(tmp_path / "log.jsonl"), Provenance("abc", 3), models)
    rows = _read_jsonl(tmp_path / "log.jsonl")
    assert rows[0] == {"config_hash": "abc", "seed": 3}
    assert [r["stop"] for r in rows if "stop" in r] == list(STOP_REASONS)
    assert rows[1] == {"stage": "stage0", "epoch": 0, "loss": 0.5, "val_f": 0.25,
                       "threshold": 0.3}


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    maps inline, or refuses them, so no process starts."""

    sizes: list = []
    refuse = False

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)

    def map(self, fn, tasks):
        if self.refuse:
            raise RuntimeError("map refused")
        return [fn(t) for t in tasks]

    def shutdown(self, cancel_futures=False):
        pass


def test_pool_never_exceeds_its_task_count(chain, monkeypatch):
    from soccersum import pipeline
    from soccersum.config import load_config
    from soccersum.io import load_dataset

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    dataset = load_dataset(str(chain.data))
    ids = dataset.match_ids()
    rows = pipeline.event_audio(dataset, {i: [0, 1] for i in ids[:3]}, jobs=64)
    assert sorted(rows) == ids[:3]
    pipeline.event_audio(dataset, {ids[0]: [0]}, jobs=64)  # inline
    assert _RecordingExecutor.sizes == [3]
    assert pipeline._DATASET is None

    # a run's pool serves its fold tasks and its per-match audio tasks
    monkeypatch.setattr(_RecordingExecutor, "refuse", True)
    cfg = load_config(str(chain.cfg), {"jobs": 64, "eval.folds": 2}, use_env=False)
    with pytest.raises(RuntimeError, match="map refused"):
        pipeline.run_protocol(dataset, cfg)
    assert _RecordingExecutor.sizes == [3, len(ids)]
    assert pipeline._DATASET is None  # released when a map raises


@pytest.fixture(scope="module")
def three_fold_runs(tmp_path_factory):
    """``e2e`` over three folds at --jobs 1 and --jobs 2, as a user runs it."""
    root = tmp_path_factory.mktemp("three_folds")
    cfg = root / "three.cfg"
    cfg.write_text(TINY.replace("eval.folds = 1", "eval.folds = 3"))
    runs = {}
    for jobs in ("1", "2"):
        out = root / ("jobs" + jobs)
        proc = subprocess.run([sys.executable, "-m", "soccersum", "e2e", "--config", str(cfg),
                               "--jobs", jobs, "--out-dir", str(out)],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        runs[jobs] = out
    return SimpleNamespace(cfg=cfg, runs=runs)


def _tree(root):
    return {os.path.relpath(os.path.join(d, f), root): Path(d, f).read_bytes()
            for d, _dirs, names in os.walk(root) for f in names}


def test_fold_tasks_write_the_same_tree_at_any_jobs(three_fold_runs):
    one, two = (_tree(three_fold_runs.runs[j]) for j in ("1", "2"))
    assert sorted(one) == sorted(two)
    assert {rel.split(os.sep)[0] for rel in one} >= {"data", "results", "fold_000",
                                                       "fold_001", "fold_002"}
    assert [rel for rel in one if one[rel] != two[rel]] == []


def test_fold_task_data_error_exits_two_at_any_jobs(three_fold_runs, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(three_fold_runs.runs["1"] / "data", data)
    (data / "summaries" / "m004.json").unlink()
    errs = []
    for jobs in ("1", "2"):
        rc = main(["evaluate", "--config", str(three_fold_runs.cfg), "--data", str(data),
                   "--out-dir", str(tmp_path / ("jobs" + jobs)), "--jobs", jobs])
        assert rc == 2
        errs.append(capsys.readouterr().err)
    assert "m004" in errs[0] and "Traceback" not in errs[0]
    assert errs[1] == errs[0]


# ---------------------------------------------------------------------------
# corrupted artifacts

DATASET_FILES = ("dataset.json", "events.jsonl", "summaries/m000.json")

# artifact -> the command that reads it; {path} is the artifact under test,
# {run} the chain's run directory, {out} a fresh output directory
CONSUMERS = {
    **{rel: ["train-proposals", "--out-dir", "{out}"] for rel in DATASET_FILES},
    "mil.ckpt": ["score-events", "--model", "{path}",
                 "--features", "{run}/stage1_features.json", "--out", "{out}/scores.csv"],
    "stage1_features.json": ["score-events", "--model", "{run}/mil.ckpt",
                             "--features", "{path}", "--out", "{out}/scores.csv"],
    "scores.csv": ["extract-proposals", "--scores", "{path}", "--model", "{run}/mil.ckpt",
                   "--out", "{out}/proposals.json"],
    "proposals.json": ["summarize", "--proposals", "{path}", "--model", "{run}/hma.ckpt",
                       "--out-dir", "{out}"],
    "hma.ckpt": ["summarize", "--proposals", "{run}/proposals.json", "--model", "{path}",
                 "--out-dir", "{out}"],
}


def _consume(chain, tmp_path, capsys, rel, raw):
    """Exit code and stderr of the consumer of artifact ``rel`` given
    ``raw`` as the artifact's bytes."""
    data = chain.data
    if rel in DATASET_FILES:
        data = tmp_path / "data"
        shutil.copytree(chain.data, data)
        path = data / rel
    else:
        path = tmp_path / rel
    path.write_bytes(raw)
    command, *args = [a.format(path=path, run=chain.run, out=tmp_path / "out")
                      for a in CONSUMERS[rel]]
    rc = main([command, "--config", str(chain.cfg), "--data", str(data), *args])
    return rc, capsys.readouterr().err


def _truncate(raw, rng, path):
    return raw[: len(raw) // 2]


def _flip_bytes(raw, rng, path):
    out = bytearray(raw)
    for pos in rng.choice(len(raw), size=8, replace=False):
        out[pos] ^= int(rng.integers(1, 256))
    return bytes(out)


def _drop_line(raw, rng, path):
    lines = raw.splitlines(keepends=True)
    del lines[int(rng.integers(len(lines)))]
    return b"".join(lines)


def _inject_nan(raw, rng, path):
    """A NaN in place of one number: a text ``nan`` token, or the IEEE NaN
    in one element of a checkpoint's largest array."""
    if raw.startswith(b"SSUMCKPT"):
        arr = max(load_checkpoint(str(path)).values(), key=np.size)
        at = raw.find(arr.astype("<f8").tobytes()) + 8 * int(rng.integers(arr.size))
        return raw[:at] + np.float64("nan").tobytes() + raw[at + 8:]
    numbers = list(re.finditer(rb"(?<![\w.])-?\d+(?:\.\d+)?(?![\w.])", raw))
    m = numbers[int(rng.integers(len(numbers)))]
    return raw[: m.start()] + b"nan" + raw[m.end():]


def _drop_vocabulary_line(raw, rng, path):
    """One event type fewer in the first action-vocabulary sequence, whose
    first element is line 4 of the file: the JSON stays well-formed."""
    lines = raw.splitlines(keepends=True)
    del lines[3]
    return b"".join(lines)


def _without(field):
    def edit(raw, rng, path):
        payload = json.loads(raw)
        del payload[field]
        return json.dumps(payload).encode()
    return edit


def _checkpoint_edit(changes):
    """An edit that sets each checkpoint array or record ``name`` of
    ``changes`` to ``changes[name](value)``, or removes it where that is
    None, and saves the checkpoint with its provenance records.  The
    edited names are the edit's ``names``: the error must name one."""
    def edit(raw, rng, path):
        ckpt = {name: changes[name](value) if name in changes else value
                for name, value in load_checkpoint(str(path)).items()}
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, path.name)
            save_checkpoint({k: v for k, v in ckpt.items() if v is not None}, out)
            return Path(out).read_bytes()
    edit.names = tuple(changes)
    return edit


def _to(value):
    return lambda old: np.full_like(old, value)


CORRUPTIONS = {"truncate": _truncate, "flip-bytes": _flip_bytes, "drop-line": _drop_line,
               "nan": _inject_nan}
EDITS = {
    ("stage1_features.json", "drop-vocabulary-line"): _drop_vocabulary_line,
    ("proposals.json", "seed-abc"):
        lambda raw, rng, path: raw.replace(b'"seed": 7', b'"seed": "abc"'),
    ("scores.csv", "seed-x"): lambda raw, rng, path: raw.replace(b" seed=7\n", b" seed=x\n", 1),
    ("stage1_features.json", "no-codebook"): _without("qualifier_codebook"),
    # one array or record of a checkpoint, provenance intact
    ("mil.ckpt", "stride-0"): _checkpoint_edit({"_meta.stride": _to(0)}),
    ("mil.ckpt", "window-0-stride-0"):
        _checkpoint_edit({"_meta.window": _to(0), "_meta.stride": _to(0)}),
    ("mil.ckpt", "window-minus-3-stride-minus-5"):
        _checkpoint_edit({"_meta.window": _to(-3), "_meta.stride": _to(-5)}),
    ("mil.ckpt", "stride-2.5"): _checkpoint_edit({"_meta.stride": _to(2.5)}),
    ("mil.ckpt", "lse_r-0"): _checkpoint_edit({"_meta.lse_r": _to(0)}),
    ("mil.ckpt", "threshold-5"): _checkpoint_edit({"_meta.threshold": _to(5.0)}),
    ("mil.ckpt", "out.w-cut"): _checkpoint_edit({"out.w": lambda w: w[:3]}),
    ("mil.ckpt", "no-lstm.U"): _checkpoint_edit({"lstm.U": lambda u: None}),
    ("mil.ckpt", "lstm.W-width-5"): _checkpoint_edit({"lstm.W": lambda w: w[:, :5]}),
    ("hma.ckpt", "no-fuse.U"): _checkpoint_edit({"fuse.U": lambda u: None}),
    ("hma.ckpt", "evatt.u-cut"): _checkpoint_edit({"evatt.u": lambda u: u[:4]}),
    ("hma.ckpt", "audio_mu-cut"): _checkpoint_edit({"_norm.audio_mu": lambda mu: mu[:5]}),
    ("hma.ckpt", "audio_sd-0"): _checkpoint_edit({"_norm.audio_sd": _to(0)}),
    # a consistent checkpoint whose input widths differ from the features
    ("hma.ckpt", "meta.W-width-cut"): _checkpoint_edit({"meta.W": lambda w: w[:, :-1]}),
    ("hma.ckpt", "audio-width-cut"): _checkpoint_edit({
        name: lambda a: a[..., :-1] for name in ("audio.W", "_norm.audio_mu", "_norm.audio_sd")}),
}
# corruptions that leave a well-formed artifact: only a payload checksum
# can tell them from the written file.  (mil.ckpt's flipped bytes are caught
# without one: they leave parameter values that are not float32.)
NEEDS_CHECKSUM = {("hma.ckpt", "flip-bytes"),
                  ("stage1_features.json", "drop-vocabulary-line")}
CHECKSUM_XFAIL = pytest.mark.xfail(strict=True, raises=AssertionError,
                                   reason="needs the payload checksum, ROADMAP item 4")
CORRUPTION_CASES = [
    pytest.param(rel, name, id="%s-%s" % (rel, name),
                 marks=[CHECKSUM_XFAIL] if (rel, name) in NEEDS_CHECKSUM else [])
    for rel, name in [(r, n) for r in CONSUMERS for n in CORRUPTIONS] + list(EDITS)
]


@pytest.mark.parametrize("rel,corruption", CORRUPTION_CASES)
def test_corrupted_artifact_exits_two(chain, tmp_path, capsys, rel, corruption):
    source = (chain.data if rel in DATASET_FILES else chain.run) / rel
    edit = CORRUPTIONS.get(corruption) or EDITS[rel, corruption]
    rng = np.random.default_rng(zlib.crc32(("%s-%s" % (rel, corruption)).encode()))
    raw = edit(source.read_bytes(), rng, source)
    assert raw != source.read_bytes()
    rc, err = _consume(chain, tmp_path, capsys, rel, raw)
    assert "Traceback" not in err
    assert rc == 2, err
    assert err.startswith("error: ")
    if hasattr(edit, "names"):
        assert str(tmp_path / rel) in err
        assert any(repr(name) in err for name in edit.names), err


@pytest.mark.parametrize("command,ckpt", [("summarize", "mil.ckpt"),
                                          ("score-events", "hma.ckpt"),
                                          ("extract-proposals", "hma.ckpt")])
def test_checkpoint_of_the_wrong_kind_exits_two(chain, tmp_path, capsys, command, ckpt):
    rel = {"summarize": "proposals.json", "score-events": "stage1_features.json",
           "extract-proposals": "scores.csv"}[command]
    command, *args = [a.format(path=chain.run / rel, run=chain.run, out=tmp_path / "out")
                      for a in CONSUMERS[rel]]
    args[args.index("--model") + 1] = str(chain.run / ckpt)
    rc = main([command, "--config", str(chain.cfg), "--data", str(chain.data), *args])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "not a stage-%s checkpoint" % ("1" if ckpt == "hma.ckpt" else "2") in err


@pytest.mark.parametrize("flag,rel", [("--model", "mil.ckpt"),
                                      ("--features", "stage1_features.json"),
                                      ("--scores", "scores.csv"),
                                      ("--proposals", "proposals.json")])
def test_missing_input_file_exits_two(chain, tmp_path, capsys, flag, rel):
    missing = tmp_path / "nowhere" / rel
    command, *args = [a.format(path=missing, run=chain.run, out=tmp_path / "out")
                      for a in CONSUMERS[rel]]
    assert args[args.index(flag) + 1] == str(missing)
    rc = main([command, "--config", str(chain.cfg), "--data", str(chain.data), *args])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err and str(missing) in err


def test_features_that_disagree_with_the_model_exit_two(chain, tmp_path, capsys):
    """One more qualifier dimension, provenance intact: the encoder is one
    column wider than the checkpoint's input."""
    raw = (chain.run / "stage1_features.json").read_text()
    assert '"dims": 8' in raw
    features = tmp_path / "stage1_features.json"
    features.write_text(raw.replace('"dims": 8', '"dims": 9'))
    model = chain.run / "mil.ckpt"
    rc = main(["score-events", "--config", str(chain.cfg), "--data", str(chain.data),
               "--model", str(model), "--features", str(features),
               "--out", str(tmp_path / "scores.csv")])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert str(features) in err and str(model) in err
    assert not (tmp_path / "scores.csv").exists()


@pytest.mark.parametrize("command", ["gen-data", "train-proposals", "score-events", "evaluate",
                                     "e2e"])
def test_output_that_cannot_be_written_exits_two(chain, tmp_path, capsys, monkeypatch, command):
    """An output path under a regular file is refused, naming the path,
    before any stage runs: stage-1 training fails the test."""
    from soccersum import cli, pipeline

    def never(*args):
        pytest.fail("stage 1 ran before the output was refused")
    for module in (cli, pipeline):
        monkeypatch.setattr(module, "train_proposal_model", never)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out"
    run = chain.run
    argv = {
        "gen-data": ["--out-dir", str(out)],
        "train-proposals": ["--data", str(chain.data), "--out-dir", str(out)],
        "score-events": ["--data", str(chain.data), "--model", str(run / "mil.ckpt"),
                         "--features", str(run / "stage1_features.json"),
                         "--out", str(out / "scores.csv")],
        "evaluate": ["--data", str(chain.data), "--out-dir", str(out)],
        "e2e": ["--out-dir", str(out)],
    }[command]
    rc = main([command, "--config", str(chain.cfg), *argv])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    assert err.startswith("error: %s" % out) and ": cannot write (" in err


def test_output_directory_that_is_a_regular_file_exits_two(chain, tmp_path, capsys,
                                                            monkeypatch):
    from soccersum import pipeline

    def never(*args):
        pytest.fail("stage 1 ran before the output was refused")
    monkeypatch.setattr(pipeline, "train_proposal_model", never)
    out = tmp_path / "a-file"
    out.write_text("")
    rc = main(["e2e", "--config", str(chain.cfg), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err == "error: %s: cannot write (Not a directory)\n" % out
