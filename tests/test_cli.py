import contextlib
import io
import json
import math
import pathlib
import tempfile
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpemu import training
from fpemu.cli import main, parse_value
from fpemu.formats import FpFormat
from fpemu.oracle import round_exact
from fpemu.rounding import RoundFlag, roundfp
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
    # a power-of-two exponent of 5001 digits, beyond what int() reads
    pytest.param("2^" + "0" * 5000 + "1", 2.0, id="2^0...01"),
    pytest.param("2^-" + "0" * 5000 + "1", 0.5, id="2^-0...01"),
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


@pytest.mark.parametrize("text", ["", "2^", "2^x", "0x", "zero", "1..2",
                                  "--5", "+-5", "- 5", "--inf",
                                  # int() and float() read these, the grammar does not
                                  "2^ 5", "2^\u0665", "1\u0665", "1_5", "1e1_0",
                                  "1.5e\u0663", "2^1_0"])
def test_parse_value_rejects(text):
    with pytest.raises(ValueError, match="^(empty value|cannot parse value)"):
        parse_value(text)


# ── subcommands ────────────────────────────────────────────────────────


def test_format_info(capsys):
    assert main(["format-info", "1/5/10/d"]) == 0
    out = capsys.readouterr().out
    assert "0x1.0000000000000p-14" in out   # min normal
    assert "0x1.0000000000000p-24" in out   # min denormal
    assert "65504" in out
    assert main(["format-info", "1/9/6/d"]) == 1
    capsys.readouterr()
    assert main(["format-info", "1/8/7/n"]) == 0
    assert capsys.readouterr().out == (
        "format 1/8/7/n\n"
        "  denormals           flush-to-zero\n"
        "  width_bits          16\n"
        "  bias                127\n"
        "  e_min               -126\n"
        "  e_max               127\n"
        "  min_denormal        none\n"
        "  min_normal          1.1754943508222875e-38 (0x1.0000000000000p-126)\n"
        "  max_finite          3.3895313892515355e+38 (0x1.fe00000000000p+127)\n"
        "  overflow_threshold  3.39617752923046e+38 (0x1.ff00000000000p+127)\n"
    )


def test_round_command(capsys):
    assert main(["round", "1/5/10/d", "2^-25", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "UNDERFLOWED_TO_ZERO" in out
    assert "0x3c00" in out  # encoding of 1.0
    assert main(["round", "1/5/10/d", "bogus"]) == 1
    assert main(["round", "1/5/10/d", "1\u0665"]) == 1   # an Arabic-Indic five


def test_round_flush_format(capsys):
    assert main(["round", "1/5/10/n", "2^-15"]) == 0
    assert "FLUSHED_DENORMAL" in capsys.readouterr().out


_BEYOND_BINARY64 = [("1e400", Fraction(10**400)), ("2^2000", Fraction(2**2000)),
                    ("1e-400", Fraction(1, 10**400)), ("2^-2000", Fraction(1, 2**2000)),
                    ("0x1p99999", Fraction(2**99999))]


@pytest.mark.parametrize("spec", ["1/5/10/d", "1/6/9/n", "1/8/7/n", "1/8/23/d"])
@pytest.mark.parametrize("text,exact", _BEYOND_BINARY64 + [
    ("-" + text, -exact) for text, exact in _BEYOND_BINARY64])
def test_round_reports_literals_beyond_binary64(spec, text, exact, capsys):
    # binary64 reads these as ±inf or ±0; the command rounds them as
    # roundfp rounds their exact values, overflow and underflow reported
    out = roundfp(exact, FpFormat.parse(spec))
    flags = "ROUNDED|" + ("OVERFLOWED_TO_INF" if abs(exact) > 1 else "UNDERFLOWED_TO_ZERO")
    assert "|".join(f.name for f in RoundFlag if f in out.flags) == flags
    assert math.copysign(1.0, out.value.surrogate) == (1.0 if exact > 0 else -1.0)
    assert main(["round", spec, "--", text]) == 0
    line = capsys.readouterr().out
    assert line.startswith(f"{text} -> {out.value.surrogate!r}") and f"flags={flags}" in line


@pytest.mark.parametrize("text,shown,flags", [
    ("1e-999999999", "0.0", "ROUNDED|UNDERFLOWED_TO_ZERO"),
    ("-2^-999999999", "-0.0", "ROUNDED|UNDERFLOWED_TO_ZERO"),
    ("0x1p999999999", "inf", "ROUNDED|OVERFLOWED_TO_INF"),
    # exponents of 19 and more digits, beyond what Decimal reads
    ("1e9999999999999999999", "inf", "ROUNDED|OVERFLOWED_TO_INF"),
    ("-1e99999999999999999999", "-inf", "ROUNDED|OVERFLOWED_TO_INF"),
    ("1e-9999999999999999999", "0.0", "ROUNDED|UNDERFLOWED_TO_ZERO"),
    ("-1e-9999999999999999999", "-0.0", "ROUNDED|UNDERFLOWED_TO_ZERO"),
    ("0e99999999999999999999", "0.0", "EXACT"),
    ("-0.0e-99999999999999999999", "-0.0", "EXACT"),
    # an exponent of 5001 digits, beyond what int() reads, of a value in range
    pytest.param("1e" + "0" * 5000 + "1", "10.0", "EXACT", id="1e0...01"),
    pytest.param("0x1p-" + "0" * 5000 + "1", "0.5", "EXACT", id="0x1p-0...01"),
    pytest.param("2^" + "0" * 5000 + "1", "2.0", "EXACT", id="2^0...01"),
    pytest.param("-2^-" + "0" * 5000 + "1", "-0.5", "EXACT", id="-2^-0...01"),
    pytest.param("2^1" + "0" * 5000, "inf", "ROUNDED|OVERFLOWED_TO_INF", id="2^10...0"),
    pytest.param("-2^-1" + "0" * 5000, "-0.0", "ROUNDED|UNDERFLOWED_TO_ZERO", id="-2^-10...0"),
])
def test_round_reads_huge_exponents_without_building_the_power(text, shown, flags, capsys):
    assert main(["round", "1/5/10/d", "--", text]) == 0
    line = capsys.readouterr().out
    assert line.startswith(f"{text} -> {shown}") and f"flags={flags} " in line


@pytest.mark.parametrize("spec", ["1/5/10/d", "1/6/9/n"])
@pytest.mark.parametrize("text,exact", [
    ("1.00048828125000000001", Fraction("1.00048828125000000001")),
    ("0x1.0020000000000001p0", Fraction(0x10020000000000001, 16**16)),
    ("-0x1.0020000000000001p0", -Fraction(0x10020000000000001, 16**16)),
    ("0.000030517578125000000001", Fraction("0.000030517578125000000001")),
    ("6.1035156250000001e-05", Fraction("6.1035156250000001e-05")),
])
def test_round_rounds_a_literal_once(spec, text, exact, capsys):
    # binary64 reads each of these as a midpoint or a point of 1/5/10/d's
    # grid; the command rounds the exact value once, as the oracle does
    want = round_exact(abs(exact), FpFormat.parse(spec), negative=exact < 0)
    assert want.rounded and not (want.underflowed or want.overflowed or want.flushed)
    assert main(["round", spec, "--", text]) == 0
    line = capsys.readouterr().out
    assert line.startswith(f"{text} -> {want.value!r} (") and "flags=ROUNDED " in line


@pytest.mark.parametrize("text,shown", [("inf", "inf"), ("-inf", "-inf"), ("0", "0.0"),
                                        ("-0", "-0.0"), ("0e-999", "0.0"),
                                        ("-0x0p-99999", "-0.0")])
def test_round_keeps_infinities_and_zero_literals_exact(text, shown, capsys):
    assert main(["round", "1/5/10/d", "--", text]) == 0
    line = capsys.readouterr().out
    assert line.startswith(f"{text} -> {shown}") and "flags=EXACT" in line


def test_dot_golden_file(capsys):
    rc = main(["dot", "1/5/10/d", str(DATA / "dot_small.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MATCH" in out
    assert "0x1.0800000000000p-18" in out


def _negative_zero_dot(tmp_path):
    # 2^-14 drains into the master first; the master then reads -2^-15,
    # which 1/5/10/n flushes to -0 in the final rounding
    path = tmp_path / "negzero.txt"
    path.write_text("2^-14 -0x1.8p-14\n1 1\n")
    return ["dot", "1/5/10/n", str(path), "--chunk", "1"]


def test_dot_matches_a_negative_zero(tmp_path, capsys):
    assert main(_negative_zero_dot(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "fmac8_dot: -0.0 (-0x0.0p+0)" in out
    assert "oracle:    -0.0 (-0x0.0p+0)" in out
    assert out.endswith("MATCH\n") and "MISMATCH" not in out


def test_dot_reports_a_zero_of_the_wrong_sign(tmp_path, capsys, monkeypatch):
    # +0 == -0, so only a comparison of the bits catches this
    monkeypatch.setattr("fpemu.cli.fmac8_dot", lambda *args, **kwargs: 0.0)
    assert main(_negative_zero_dot(tmp_path)) == 1
    assert capsys.readouterr().out.endswith("MISMATCH\n")


def test_dot_rounds_each_literal_once(tmp_path, capsys):
    # binary64 reads the weight as 1 + 2^-11, a midpoint of 1/5/10/d
    path = tmp_path / "once.txt"
    path.write_text("1.00048828125000000001\n1\n")
    assert main(["dot", "1/5/10/d", str(path)]) == 0
    assert "fmac8_dot: 1.0009765625 (0x1.0040000000000p+0)" in capsys.readouterr().out


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
    bad.write_text("1.0 --5\n0.5 1.0\n")  # a doubled sign
    assert main(["dot", "1/5/10/d", str(bad)]) == 1
    for chunk in ["0", "\u0668", "1_0"]:  # zero, an Arabic-Indic eight, an underscore
        assert main(["dot", "1/5/10/d", str(DATA / "dot_small.txt"), "--chunk", chunk]) == 1


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
    capsys.readouterr()
    cfg.write_text("task = regression\ndtype = float32\n")  # older config.txt files end so
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("fpemu: error: unknown config keys ['dtype']")


def test_train_reads_config_numbers_in_the_cli_grammar(tmp_path, capsys):
    argv = ["train", "--task", "regression", "--out", str(tmp_path), "--set", "steps=2",
            "--set", "dls=on", "--set", "init_scale=2^15", "--set", "lr=0x1p-4"]
    assert main(argv) != 1
    (run_dir,) = tmp_path.iterdir()
    text = (run_dir / "config.txt").read_text()
    assert "\ninit_scale=32768.0\n" in text and "\nlr=0.0625\n" in text


def test_train_fmac8_chunk_longer_than_every_reduction(tmp_path, capsys):
    # every regression matmul has K <= 32, so a chunk of 32 drains only at
    # the end of each reduction, as a chunk of 10^12 does
    files = {}
    for chunk in ("32", "1000000000000"):
        argv = ["train", "--task", "regression", "--out", str(tmp_path / chunk),
                "--set", "format=1/6/9/n", "--set", "mode=fmac8", "--set", "steps=3",
                "--set", f"chunk={chunk}"]
        assert main(argv) in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        (run_dir,) = (tmp_path / chunk).iterdir()
        files[chunk] = [(run_dir / name).read_bytes()
                        for name in ("loss.csv", "telemetry.csv", "summary.json")]
    assert files["32"] == files["1000000000000"]


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
    ["dls=on", "init_scale=3"],
    ["dls=on", "growth_interval=0"],
    ["seed=-1"],
    ["steps=1_0"],
    ["lr=0.0\u0665"],
    ["seed=1\u0663"],
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


def test_refused_train_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "runs"
    for sets, message in [
        (["batch_size=1000"], "batch_size exceeds dataset size"),
        (["dls=on", "init_scale=3"], "init_scale must be a positive power of two, got 3.0"),
        (["dls=on", "growth_interval=0"], "growth_interval must be positive"),
        (["seed=-1"], "seed must be non-negative"),
    ]:
        argv = ["train", "--out", str(out), "--task", "regression"]
        for item in sets:
            argv += ["--set", item]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"fpemu: error: {message}\n"
        assert not out.exists()


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
    # JSON nested beyond Python's recursion limit
    pytest.param("[" * 100_000, id="nested"),
    # integers that report could not format as floats
    pytest.param({"final_loss": 10**400}, id="final_loss-401-digits"),
    pytest.param({"global_max_denormal_fraction": -(10**400)}, id="global_max-401-digits"),
])
def test_report_skips_summaries_of_the_wrong_shape(tmp_path, capsys, payload):
    good = RunSummary("good_run", "1/5/10/d", False, "fmacs", {"w": 0.5}, 0.5, 1,
                      final_loss=1.0, outcome="converged")
    (tmp_path / "good").mkdir()
    (tmp_path / "good" / "summary.json").write_text(good.to_json())
    if isinstance(payload, dict):
        payload = {**json.loads(good.to_json()), **payload}
    (tmp_path / "bad").mkdir()
    text = payload if isinstance(payload, str) else json.dumps(payload)
    (tmp_path / "bad" / "summary.json").write_text(text)
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

# config keys by their declared TrainConfig type, an optional int counted as int
_KEYS_OF = {t: {name for name, hint in typing.get_type_hints(training.TrainConfig).items()
                if hint in (t, t | None)} for t in (int, float)}
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_FORMATS = st.one_of(
    st.sampled_from(["1/5/10/d", "1/6/9/n", "1/8/7/n", "1/2/1/d", "1/8/23/d"]),
    st.sampled_from(["none", "1/9/6/d", "1/5/10"]), _TEXT)
_VALUES = st.one_of(
    st.sampled_from(["0", "-0", "1", "-1", "0.5", "8", "1e400", "-2^-24", "2^99999",
                     "0x1p-99999", "0x1.8p-5", "nan", "inf", "-inf", "65504", "1e-45",
                     "1e99999999999999999999", "1_0", "\u0663"]),
    st.floats().map(repr), st.integers(-(2**70), 2**70).map(str), _TEXT)
_TYPED = {  # values of the right type for each config key, bad ones included
    "task": st.sampled_from(["regression", "mlp_classify", "cnn_classify", "nope"]),
    "format": _FORMATS,
    "mode": st.sampled_from(["mac", "macs", "fmac", "fmacs", "fmac8", "FMAC", "x"]),
    "dls": st.sampled_from(["on", "off", "yes", "maybe"]),
    **{key: st.integers(-2, 40).map(str) for key in sorted(_KEYS_OF[int])},
    **{key: st.one_of(st.sampled_from(["0", "0.5", "1", "2", "0.1", "1e9", "1e-30", "nan",
                                       "inf", "-1", "65536", "2^-10"]),
                      st.floats().map(repr))
       for key in sorted(_KEYS_OF[float])},
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
