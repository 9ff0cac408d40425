import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpemu import training
from fpemu.cli import _CliError, main, parse_value
from fpemu.telemetry import RunSummary

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


@pytest.mark.parametrize("text,value", [
    ("1e400", math.inf), ("-1e400", -math.inf), ("1e-400", 0.0), ("-1e-400", -0.0),
    ("2^99999", math.inf), ("-2^99999", -math.inf), ("2^-99999", 0.0), ("-2^-99999", -0.0),
    ("0x1p99999", math.inf), ("-0x1p99999", -math.inf), ("0x1p-99999", 0.0),
    ("-0x1p-99999", -0.0),
])
def test_parse_value_saturates_beyond_binary64(text, value):
    # decimal, power-of-two and hex literals overflow to a signed
    # infinity and underflow to a signed zero alike
    got = parse_value(text)
    assert got == value and math.copysign(1.0, got) == math.copysign(1.0, value)


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
    bad.write_bytes(b"1.0\n\xff\n")  # not UTF-8
    assert main(["dot", "1/5/10/d", str(bad)]) == 1
    assert main(["dot", "1/5/10/d", str(DATA / "dot_small.txt"), "--chunk", "0"]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # divergence leg overflows
def test_train_exit_codes(tmp_path, capsys):
    # relaxed threshold converges immediately
    rc = main(["train", "--task", "regression", "--out", str(tmp_path / "ok"),
               "--set", "steps=20", "--set", "converged_loss=1e9",
               "--set", "degraded_loss=1e9"])
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
                   "converged_loss = 1e9\ndegraded_loss = 1e9\n")
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "1/5/10/d" in capsys.readouterr().out
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1
    cfg.write_text("task = regression\njust words\n")
    assert main(["train", "--config", str(cfg)]) == 1
    cfg.write_bytes(b"task = regression\n\xff\n")  # not UTF-8
    assert main(["train", "--config", str(cfg)]) == 1


def test_train_rejects_bad_set():
    assert main(["train", "--task", "regression", "--set", "notakey=1"]) == 1
    assert main(["train", "--task", "regression", "--set", "nodelimiter"]) == 1


@pytest.mark.parametrize("sets", [
    ["lr=nan"],
    ["lr=inf"],
    ["momentum=nan"],
    ["divergence_patience=0"],
    ["chunk=0"],
    ["converged_loss=1", "degraded_loss=0.1"],
], ids=" ".join)
def test_train_rejects_bad_settings_before_training(monkeypatch, capsys, sets):
    def unreachable(*args):
        raise AssertionError("training started")
    monkeypatch.setattr(training, "build_task_data", unreachable)
    argv = ["train", "--task", "regression"]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fpemu: error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("payload", [
    [],                                          # valid JSON, not an object
    {"global_max_denormal_fraction": None},      # a null where a number belongs
])
def test_report_skips_summaries_of_the_wrong_shape(tmp_path, capsys, payload):
    good = RunSummary("good_run", "1/5/10/d", False, "fmacs", {"w": 0.5}, 0.5, 1,
                      final_loss=1.0, outcome="converged")
    (tmp_path / "good").mkdir()
    (tmp_path / "good" / "summary.json").write_text(good.to_json())
    if isinstance(payload, dict):
        payload = {**json.loads(good.to_json()), **payload}
    (tmp_path / "bad").mkdir()
    (tmp_path / "bad" / "summary.json").write_text(json.dumps(payload))
    assert main(["report", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "good_run" in captured.out
    assert "skipping" in captured.err and "bad" in captured.err
    assert "Traceback" not in captured.err


def test_train_out_that_cannot_be_created(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("training started before the output directory existed")
    monkeypatch.setattr(training, "build_task_data", unreachable)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["train", "--task", "regression", "--set", "steps=2",
               "--out", str(blocker / "runs")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("fpemu: error: cannot write artifacts to ")
    assert err.count("\n") == 1


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


# ── fuzzing ────────────────────────────────────────────────────────────

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_FORMATS = st.one_of(
    st.sampled_from(["1/5/10/d", "1/6/9/n", "1/8/7/n", "1/2/1/d", "1/8/23/d"]),
    st.sampled_from(["none", "1/9/6/d", "1/5/10"]), _TEXT)
_VALUES = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "0.5", "8", "1e400", "-2^-24", "2^99999",
                     "0x1p-99999", "0x1.8p-5", "nan", "inf", "-inf", "65504", "1e-45"]),
    st.floats().map(repr), st.integers(-(2**70), 2**70).map(str), _TEXT)
_TYPED = {  # values of the right type for each config key, bad ones included
    "task": st.sampled_from(["regression", "mlp_classify", "cnn_classify", "nope"]),
    "format": _FORMATS,
    "mode": st.sampled_from(["mac", "macs", "fmac", "fmacs", "fmac8", "FMAC", "x"]),
    "dls": st.sampled_from(["on", "off", "yes", "maybe"]),
    "dtype": st.sampled_from(["float32", "float64", "float16"]),
    **{key: st.integers(-2, 40).map(str) for key in sorted(training._INT_KEYS)},
    **{key: st.one_of(st.sampled_from(["0", "0.5", "1", "2", "0.1", "1e9", "1e-30", "nan",
                                       "inf", "-1", "65536", "2^-10"]),
                      st.floats().map(repr))
       for key in sorted(training._FLOAT_KEYS)},
}
_SETTING = st.sampled_from(sorted(_TYPED)).flatmap(
    lambda key: _TYPED[key].map(lambda value: f"{key}={value}"))
_JUNK = st.one_of(st.tuples(st.sampled_from(sorted(_TYPED) + ["bogus"]), _VALUES)
                  .map("=".join), _TEXT)
_SETTINGS = st.tuples(st.lists(_SETTING, max_size=4), st.lists(_JUNK, max_size=1)).map(
    lambda parts: parts[0] + parts[1])


@st.composite
def _argv(draw, workdir: pathlib.Path) -> list[str]:
    """One command line, with the files it names written under workdir."""
    command = draw(st.sampled_from(
        ["format-info", "round", "dot", "train", "train", "train", "report", "self-test",
         "other"]))
    if command == "format-info":
        return [command, *draw(st.lists(_FORMATS, max_size=3))]
    if command == "round":
        return [command, draw(_FORMATS), *draw(st.lists(_VALUES, max_size=4))]
    if command == "dot":
        n = draw(st.integers(0, 20))
        rows = st.lists(_VALUES, min_size=n, max_size=n).map(" ".join)
        text = draw(st.one_of(st.tuples(rows, rows).map("\n".join),
                              st.lists(rows, max_size=3).map("\n".join), _TEXT))
        (workdir / "vectors.txt").write_text(text)
        chunk = draw(st.one_of(st.integers(-1, 10).map(str), _VALUES))
        return [command, draw(_FORMATS), str(workdir / "vectors.txt"), "--chunk", chunk]
    if command == "train":
        argv = [command]
        if draw(st.integers(0, 3)):
            argv += ["--task", draw(_TYPED["task"])]
        if draw(st.booleans()):
            (workdir / "run.cfg").write_text("\n".join(draw(_SETTINGS)))
            argv += ["--config", str(workdir / "run.cfg")]
        if draw(st.booleans()):
            argv += ["--out", str(workdir / draw(st.sampled_from(["runs", "run.cfg/x"])))]
        for item in draw(_SETTINGS):
            argv += ["--set", item]
        return argv + ["--set", "steps=2"]  # keeps every example short
    if command == "report":
        (workdir / "r").mkdir()
        (workdir / "r" / "summary.json").write_text(draw(_TEXT))
        return [command, str(workdir / draw(st.sampled_from(["r", "missing"])))]
    if command == "self-test":
        return [command]
    return draw(st.lists(_TEXT, max_size=4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning:fpemu.training")  # diverging runs overflow
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_cli_fuzz_exits_cleanly(data):
    """Any command line ends with an exit code, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(_argv(pathlib.Path(tmp)), label="argv")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (0, 1, 2, 3)
