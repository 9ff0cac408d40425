import json
import math
import pathlib

import pytest

from fpemu.cli import _CliError, main, parse_value

DATA = pathlib.Path(__file__).parent / "data"


# ── value grammar ──────────────────────────────────────────────────────


@pytest.mark.parametrize("text,value", [
    ("1.5", 1.5),
    ("-0.25", -0.25),
    ("0x1.8p-5", float.fromhex("0x1.8p-5")),
    ("2^-24", 2.0**-24),
    ("-2^10", -1024.0),
    ("2^200", 2.0**200),
    ("inf", math.inf),
    ("-Inf", -math.inf),
    ("65504", 65504.0),
    ("1e400", math.inf),  # decimal overflow saturates
])
def test_parse_value(text, value):
    assert parse_value(text) == value


def test_parse_value_nan():
    assert math.isnan(parse_value("nan"))


@pytest.mark.parametrize("text", ["", "2^", "2^x", "0x", "zero", "1..2"])
def test_parse_value_rejects(text):
    with pytest.raises(_CliError):
        parse_value(text)


# ── subcommands ────────────────────────────────────────────────────────


def test_format_info(capsys):
    assert main(["format-info", "1/5/10/d"]) == 0
    out = capsys.readouterr().out
    assert "0x1.0000000000000p-14" in out   # min normal
    assert "0x1.0000000000000p-24" in out   # min denormal
    assert "65504" in out
    assert main(["format-info", "1/9/6/d"]) == 1


def test_round_command(capsys):
    assert main(["round", "1/5/10/d", "2^-25", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "UNDERFLOWED_TO_ZERO" in out
    assert "0x3c00" in out  # encoding of 1.0
    assert main(["round", "1/5/10/d", "bogus"]) == 1


def test_round_flush_format(capsys):
    assert main(["round", "1/5/10/n", "2^-15"]) == 0
    assert "FLUSHED_DENORMAL" in capsys.readouterr().out


def test_dot_golden_file(capsys):
    rc = main(["dot", "1/5/10/d", str(DATA / "dot_small.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MATCH" in out
    assert "0x1.0800000000000p-18" in out


def test_dot_missing_file():
    assert main(["dot", "1/5/10/d", str(DATA / "nope.txt")]) == 1


def test_dot_malformed_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0\n")  # only one data line
    assert main(["dot", "1/5/10/d", str(bad)]) == 1
    bad.write_text("1.0 2.0\n0.5\n")  # length mismatch
    assert main(["dot", "1/5/10/d", str(bad)]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # divergence leg overflows
def test_train_exit_codes(tmp_path, capsys):
    # relaxed threshold converges immediately
    rc = main(["train", "--task", "regression", "--out", str(tmp_path / "ok"),
               "--set", "steps=20", "--set", "converged_loss=1e9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outcome" in out and "converged" in out
    assert (tmp_path / "ok").is_dir()
    run_dirs = list((tmp_path / "ok").iterdir())
    assert len(run_dirs) == 1
    summary = json.loads((run_dirs[0] / "summary.json").read_text())
    assert summary["outcome"] == "converged"

    # impossible threshold degrades
    rc = main(["train", "--task", "regression", "--out", str(tmp_path / "deg"),
               "--set", "steps=20", "--set", "converged_loss=1e-30",
               "--set", "degraded_loss=1e9"])
    assert rc == 2

    # blown-up run diverges
    rc = main(["train", "--task", "regression", "--out", str(tmp_path / "div"),
               "--set", "steps=40", "--set", "lr=1e9",
               "--set", "divergence_patience=5"])
    assert rc == 3


def test_train_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("task = regression\nformat = 1/5/10/d\nsteps = 10\n"
                   "converged_loss = 1e9\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "1/5/10/d" in capsys.readouterr().out
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_train_rejects_bad_set():
    assert main(["train", "--task", "regression", "--set", "notakey=1"]) == 1
    assert main(["train", "--task", "regression", "--set", "nodelimiter"]) == 1


def test_train_batch_larger_than_dataset(capsys):
    assert main(["train", "--task", "regression", "--set", "batch_size=1000"]) == 1
    err = capsys.readouterr().err
    assert err == "fpemu: error: batch_size exceeds dataset size\n"


def test_report(tmp_path, capsys):
    for name, threshold in [("a", "1e9"), ("b", "1e-30")]:
        main(["train", "--task", "regression", "--out", str(tmp_path),
              "--set", "steps=12", "--set", f"converged_loss={threshold}",
              "--set", "degraded_loss=1e9", "--set",
              f"seed={1234 if name == 'a' else 99}"])
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "converged" in out and "degraded" in out
    assert out.count("regression") >= 2


def test_report_flags_corrupt_summaries(tmp_path, capsys):
    (tmp_path / "r1").mkdir()
    (tmp_path / "r1" / "summary.json").write_text("{not json")
    assert main(["report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "summary.json" in captured.err


def test_report_empty_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "no *summary.json" in capsys.readouterr().err


def test_self_test(capsys):
    assert main(["self-test"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "fail" not in out


def test_usage_errors_and_help(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "fpemu" in capsys.readouterr().out
