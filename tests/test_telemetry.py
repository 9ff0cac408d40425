import json

import numpy as np
import pytest

from fpemu.formats import FpFormat, classify_array, decode16_array
from fpemu.telemetry import (
    CSV_COLUMNS,
    DenormalStats,
    Phase,
    RunSummary,
    TelemetrySink,
)

HALF = FpFormat.parse("1/5/10/d")
WIDE = FpFormat.parse("1/6/9/d")


def stats(values, fmt=HALF, tensor_id="t", phase=Phase.WEIGHT, step=0):
    arr = np.asarray(values, dtype=np.float32)
    return DenormalStats.from_array(
        arr, fmt, tensor_id=tensor_id, phase=phase, step=step
    )


def test_fraction_depends_on_the_format():
    values = [2.0**-24, 1.0]
    assert stats(values, HALF).fraction_denormal == 0.5
    # the same magnitude is a normal value under the wider exponent
    assert stats(values, WIDE).fraction_denormal == 0.0


def test_zeros_count_in_the_denominator_only():
    s = stats([0.0, 2.0**-24, 1.0])
    assert s.n_zero == 1 and s.n_denormal == 1 and s.n_normal == 1
    assert s.fraction_denormal == pytest.approx(1 / 3)


def test_specials_count_in_the_denominator_only():
    s = stats([np.inf, -np.inf, np.nan, 2.0**-20])
    assert s.n_inf == 2 and s.n_nan == 1 and s.n_denormal == 1
    assert s.fraction_denormal == 0.25


def test_empty_tensor_has_zero_fraction():
    s = stats([])
    assert s.total == 0
    assert s.fraction_denormal == 0.0


def test_negative_denormals_are_counted():
    s = stats([-(2.0**-24), -(2.0**-15), 2.0**-14])
    assert s.n_denormal == 2 and s.n_normal == 1


def test_counts_match_the_class_codes():
    # from_array counts four comparisons one at a time; the counts must be
    # those of classify_array's codes on every 16-bit word (denormals,
    # specials), raw binary32 and binary64 bit patterns (signaling NaNs
    # included), binary64 values below binary32's range, a 2-D view and
    # an empty array
    rng = np.random.default_rng(11)
    raw32 = np.concatenate([
        rng.integers(0, 1 << 32, size=4000, dtype=np.uint64).astype(np.uint32),
        np.array([0x7F800001, 0xFF800001, 0x00000001, 0x80000000], dtype=np.uint32),
    ]).view(np.float32)
    raw64 = rng.integers(0, 1 << 64, size=4000, dtype=np.uint64).view(np.float64)
    tiny = np.array([[2.0**-149, -(2.0**-160)], [0.0, -np.inf]])
    words = np.arange(1 << 16, dtype=np.uint16)
    for fmt in (HALF, WIDE, FpFormat.parse("1/6/9/n"), FpFormat.parse("1/8/7/n")):
        corpora = [raw32, raw64, tiny.T, np.zeros(0, np.float32)]
        if fmt.width == 16:
            corpora.append(decode16_array(words, fmt))
        for x in corpora:
            s = DenormalStats.from_array(x, fmt, tensor_id="t", phase=Phase.WEIGHT, step=0)
            want = np.bincount(classify_array(x, fmt).ravel(), minlength=5).tolist()
            got = [s.n_zero, s.n_denormal, s.n_normal, s.n_inf, s.n_nan]
            assert got == want and all(type(n) is int for n in got)


def test_sink_rejects_duplicate_keys():
    sink = TelemetrySink(run_id="r")
    sink.record(stats([1.0], step=1, phase=Phase.WEIGHT))
    sink.record(stats([1.0], step=1, phase=Phase.FORWARD_ACTIVATION))
    sink.record(stats([1.0], step=2, phase=Phase.WEIGHT))
    sink.record(stats([1.0], step=1, phase=Phase.WEIGHT, tensor_id="other"))
    with pytest.raises(ValueError):
        sink.record(stats([2.0], step=1, phase=Phase.WEIGHT))
    assert len(sink.records) == 4


def test_per_tensor_and_global_maxima_ignore_record_order():
    def build(order):
        sink = TelemetrySink(run_id="r")
        entries = [
            stats([2.0**-24, 1.0], step=0, tensor_id="a"),          # 0.5
            stats([2.0**-24, 1.0, 1.0, 1.0], step=1, tensor_id="a"),  # 0.25
            stats([1.0], step=0, tensor_id="b"),                      # 0.0
            stats([2.0**-24], step=1, tensor_id="b"),                 # 1.0
        ]
        for i in order:
            sink.record(entries[i])
        return sink

    fwd = build([0, 1, 2, 3])
    rev = build([3, 2, 1, 0])
    assert fwd.per_tensor_max() == rev.per_tensor_max() == {"a": 0.5, "b": 1.0}
    assert fwd.global_max() == 1.0


def test_empty_sink_summary():
    sink = TelemetrySink(run_id="r")
    assert sink.global_max() == 0.0
    summary = sink.summarize(fmt="1/5/10/d", dls=False, accum_mode="fmacs")
    assert summary.per_tensor_max == {}
    assert summary.n_records == 0


def test_csv_round_trip(tmp_path):
    sink = TelemetrySink(run_id="roundtrip")
    sink.record(stats([2.0**-24, 0.0, 1.0], step=0, phase=Phase.WEIGHT))
    sink.record(stats([np.nan, np.inf], step=1, phase=Phase.ACTIVATION_GRADIENT,
                      tensor_id="g"))
    path = tmp_path / "telemetry.csv"
    sink.write_csv(path)

    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)

    back = TelemetrySink.read_csv(path)
    assert back.run_id == "roundtrip"
    assert back.records == sink.records


def test_csv_read_rejects_inconsistent_fraction(tmp_path):
    sink = TelemetrySink(run_id="r")
    sink.record(stats([2.0**-24, 1.0], step=0))
    path = tmp_path / "telemetry.csv"
    sink.write_csv(path)
    lines = path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[-1] = "0.75"  # declared fraction no longer matches the counts
    (path).write_text("\n".join([lines[0], ",".join(parts)]) + "\n")
    with pytest.raises(ValueError):
        TelemetrySink.read_csv(path)


@pytest.mark.parametrize("column,text", [("step", "1_0"), ("n_zero", "\u0663"),
                                         ("fraction", "0.5\u0660")])
def test_csv_read_rejects_numbers_outside_the_grammar(tmp_path, column, text):
    sink = TelemetrySink(run_id="r")
    sink.record(stats([0.0, 1.0], step=0))
    path = tmp_path / "telemetry.csv"
    sink.write_csv(path)
    header, row = path.read_text().splitlines()
    parts = row.split(",")
    parts[CSV_COLUMNS.index(column)] = text
    path.write_text("\n".join([header, ",".join(parts)]) + "\n")
    with pytest.raises(ValueError, match="^cannot parse"):
        TelemetrySink.read_csv(path)


def test_csv_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "telemetry.csv"
    path.write_text("nope,columns\n")
    with pytest.raises(ValueError):
        TelemetrySink.read_csv(path)


def test_summary_json_round_trip():
    sink = TelemetrySink(run_id="j")
    sink.record(stats([2.0**-24, 1.0, 1.0, 1.0], step=0, tensor_id="x"))
    summary = sink.summarize(
        fmt="1/6/9/n", dls=True, accum_mode="fmac8",
        final_loss=1.25e-3, outcome="converged",
    )
    text = summary.to_json()
    parsed = json.loads(text)
    assert parsed["format"] == "1/6/9/n"
    assert parsed["global_max_denormal_fraction"] == 0.25
    assert parsed["per_tensor_max_denormal_fraction"] == {"x": 0.25}
    back = RunSummary.from_json(text)
    assert back == summary


def test_phase_values_are_stable():
    assert Phase.FORWARD_ACTIVATION.value == "forward_activation"
    assert Phase.WEIGHT.value == "weight"
    assert Phase.ACTIVATION_GRADIENT.value == "activation_gradient"
