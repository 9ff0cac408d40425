"""Which fpemu functions a traced run wraps, and the per-layer metrics.

The layers are the package's modules.  ``install`` wraps their public
functions and the methods the training loop runs through; ``metrics``
reduces the tracer's aggregates to the names listed under ``per_layer``
in BENCHMARK.json.  ``dyadic.*`` names stand for ``fpemu._dyadic``.
"""

from __future__ import annotations

import numpy as np

from spans import Tracer

# m x k x n of the matrix products training runs most: the conv forward
# and weight gradient, the cnn head forward and weight gradient, and the
# regression forward.
SHAPES = ("32x108x4", "4x32x108", "1152x9x3", "3x1152x9", "32x16x1")

LAYERS = {
    "regression": ("fc0",),
    "mlp_classify": ("fc0", "relu0", "fc1"),
    "cnn_classify": ("conv0", "relu0", "fc0"),
}

SCALAR = ("mac", "macs", "fmac", "fmacs")
DYADIC = ("fused_add_round", "add_round", "round_mk")
ORACLE = ("round_exact", "round_float", "mac_oracle", "macs_oracle", "fmac_oracle",
          "fmacs_oracle", "dot_oracle")


def _size(args) -> int:
    return int(np.size(args[0]))


def _shape_of(m):
    return np.shape(getattr(m, "data", m))


def install(tracer: Tracer) -> None:
    from fpemu import _dyadic, cli, formats, instructions, oracle, rounding, tasks, telemetry, training

    fixed = lambda name: (lambda _args: (name,))  # noqa: E731

    tracer.wrap_function(rounding, "roundfp_array", per_binding=True, elems_of=_size)
    tracer.wrap_function(rounding, "roundfp")
    tracer.wrap_function(formats, "classify_array", elems_of=_size)
    tracer.wrap_method(formats.FpFormat, "contains", fixed("formats.contains"))

    def matmul_names(kind):
        def names(args):
            (m, k), (_, n) = _shape_of(args[0]), _shape_of(args[1])
            return (f"instructions.{kind}", f"instructions.{m}x{k}x{n}")
        return names

    def macs_of(args):
        (m, k), (_, n) = _shape_of(args[0]), _shape_of(args[1])
        return m * k * n

    for kind in ("matmul", "matmul_wide"):
        orig = getattr(instructions, kind)
        for mod in (instructions, training):
            if mod.__dict__.get(kind) is orig:
                tracer.patch(mod, kind, tracer.span(matmul_names(kind), orig, elems_of=macs_of))
    tracer.wrap_function(instructions, "fmac8_dot", elems_of=lambda a: len(a[0]))
    for name in SCALAR:
        tracer.wrap_function(instructions, name, "instructions.scalar")

    for name in DYADIC:
        tracer.wrap_function(_dyadic, name, f"dyadic.{name}")
    for name in ORACLE:
        tracer.wrap_function(oracle, name, f"oracle.{name}", always=True)

    tracer.wrap_method(telemetry.DenormalStats, "from_array", fixed("telemetry.from_array"))
    tracer.wrap_method(telemetry.TelemetrySink, "record", fixed("telemetry.record"))
    tracer.wrap_method(telemetry.TelemetrySink, "write_csv", fixed("telemetry.write_csv"))

    def train_names(args):
        tracer.context["task"] = args[0].task
        return ("training.step",)

    orig_train = training.train
    for mod in (training, cli):                # cli binds train by name
        tracer.patch(mod, "train", tracer.span(train_names, orig_train))
    tracer.wrap_method(training.StepEnv, "quantize", fixed("training.quantize"))
    tracer.wrap_method(training.Model, "sgd_step", fixed("training.sgd"))
    tracer.wrap_function(training, "_loss_and_grad", "training.loss")
    tracer.wrap_function(training, "build_model", "training.build_model")
    for cls in (training.Linear, training.Conv3x3, training.ReLU):
        for phase in ("forward", "backward"):
            tracer.wrap_method(cls, phase, lambda a, p=phase: (
                f"training.{tracer.context.get('task', '?')}.{a[0].name}.{p}",))
    tracer.wrap_function(tasks, "build_task_data")
    tracer.wrap_function(cli, "main")


def metric_specs():
    """(name, unit, better) of every per-layer metric, in BENCHMARK.json order."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    r = "rounding.roundfp_array"
    add(f"{r}.calls", "count")
    add(f"{r}.melems", "Melem")
    add(f"{r}.self_s", "s")
    add(f"{r}.us_per_call", "us")
    add(f"{r}.melem_per_s", "Melem/s", "higher")
    for kind in ("matmul", "matmul_wide"):
        add(f"instructions.{kind}.calls", "count")
        add(f"instructions.{kind}.self_s", "s")
    add("instructions.roundfp_calls_per_matmul", "calls/matmul")
    add("instructions.emulated_mac_per_s", "MAC/s", "higher")
    for shape in SHAPES:
        add(f"instructions.{shape}.ms_per_call", "ms")
    add("instructions.fmac8_dot.calls", "count")
    add("instructions.fmac8_dot.elems", "count")
    add("instructions.fmac8_dot.self_s", "s")
    add("instructions.scalar.calls", "count")
    add("instructions.scalar.self_s", "s")
    for name in DYADIC:
        add(f"dyadic.{name}.calls", "count")
    add("dyadic.self_s", "s")
    add("formats.contains.calls", "count")
    add("formats.contains.self_s", "s")
    add("formats.classify_array.calls", "count")
    add("formats.classify_array.melems", "Melem")
    add("formats.classify_array.self_s", "s")
    add("telemetry.from_array.calls", "count")
    add("telemetry.from_array.self_s", "s")
    add("telemetry.record.calls", "count")
    add("telemetry.write_csv.self_s", "s")
    for task, layers in LAYERS.items():
        for layer in layers:
            add(f"training.{task}.{layer}.forward_ms", "ms")
            add(f"training.{task}.{layer}.backward_ms", "ms")
    for name in ("quantize", "loss", "sgd", "step"):
        add(f"training.{name}.self_s", "s")
    add("tasks.build_task_data.self_s", "s")
    add("cli.main.self_s", "s")
    add("oracle.self_s", "s")
    return out


def metrics(tracer: Tracer) -> dict[str, float]:
    st = tracer.stats

    def get(name, field):
        s = st.get(name)
        return 0 if s is None else getattr(s, field)

    def per_call_ms(name):
        calls = get(name, "calls")
        return get(name, "total_ns") / calls / 1e6 if calls else 0.0

    def rate(work, seconds):
        return work / seconds if seconds else 0.0

    r = "rounding.roundfp_array"
    out = {
        f"{r}.calls": get(r, "calls"),
        f"{r}.melems": get(r, "elems") / 1e6,
        f"{r}.self_s": tracer.self_s(r),
        f"{r}.us_per_call": rate(tracer.self_s(r) * 1e6, get(r, "calls")),
        f"{r}.melem_per_s": rate(get(r, "elems") / 1e6, tracer.self_s(r)),
    }
    mm = ("instructions.matmul", "instructions.matmul_wide")
    for name in mm:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = tracer.self_s(name)
    out["instructions.roundfp_calls_per_matmul"] = rate(get(f"{r}@instructions", "calls"),
                                                        tracer.calls(*mm))
    out["instructions.emulated_mac_per_s"] = rate(
        sum(get(n, "elems") for n in mm), sum(get(n, "total_ns") for n in mm) / 1e9)
    for shape in SHAPES:
        out[f"instructions.{shape}.ms_per_call"] = per_call_ms(f"instructions.{shape}")
    d = "instructions.fmac8_dot"
    out.update({f"{d}.calls": get(d, "calls"), f"{d}.elems": get(d, "elems"),
                f"{d}.self_s": tracer.self_s(d)})
    out["instructions.scalar.calls"] = get("instructions.scalar", "calls")
    out["instructions.scalar.self_s"] = tracer.self_s("instructions.scalar")
    for name in DYADIC:
        out[f"dyadic.{name}.calls"] = get(f"dyadic.{name}", "calls")
    out["dyadic.self_s"] = tracer.self_s(*(f"dyadic.{n}" for n in DYADIC))
    for name in ("formats.contains", "formats.classify_array"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.self_s"] = tracer.self_s(name)
    out["formats.classify_array.melems"] = get("formats.classify_array", "elems") / 1e6
    out["telemetry.from_array.calls"] = get("telemetry.from_array", "calls")
    out["telemetry.from_array.self_s"] = tracer.self_s("telemetry.from_array")
    out["telemetry.record.calls"] = get("telemetry.record", "calls")
    out["telemetry.write_csv.self_s"] = tracer.self_s("telemetry.write_csv")
    for task, layers in LAYERS.items():
        for layer in layers:
            for phase in ("forward", "backward"):
                out[f"training.{task}.{layer}.{phase}_ms"] = per_call_ms(
                    f"training.{task}.{layer}.{phase}")
    for name in ("quantize", "loss", "sgd", "step"):
        out[f"training.{name}.self_s"] = tracer.self_s(f"training.{name}")
    out["tasks.build_task_data.self_s"] = tracer.self_s("tasks.build_task_data")
    out["cli.main.self_s"] = tracer.self_s("cli.main")
    out["oracle.self_s"] = tracer.self_s(*(f"oracle.{n}" for n in ORACLE))
    return out
