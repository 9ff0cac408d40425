"""Benchmark fpemu end to end, or module by module with ``--trace 1``.

    python3 bench/run.py --workload train_cnn --seed 1 --seconds 15 --trace 0

Workloads: train_cnn, train_sweep, quantize_bulk, dot_verify (see
bench/README.md).  The program is imported from ``src/`` of the checkout
this file sits in.  A run sets up its inputs from the seed, repeats whole
rounds of its operations until ``--seconds`` have passed, checks the
outputs, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics.  The line before it
(``SIMULATED {...}``) holds the simulated statistics, which a change that
only affects speed must leave identical.  A fuller record goes to
``bench/out/``.
"""

import time

_T_FIRST = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("train_cnn", "train_sweep", "quantize_bulk", "dot_verify")


def _process_age() -> float:
    """Seconds between the start of this process and now (0 if unknown)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


T_PROCESS = _T_FIRST - _process_age()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Put the checkout's ``src/`` first on the path and import fpemu from it."""
    src = ROOT / "src"
    if not (src / "fpemu" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fpemu sources at {src / 'fpemu'}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import fpemu

    if not Path(fpemu.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: fpemu was imported from {fpemu.__file__}, not {src}")


def best_rate(samples, scale=1.0):
    """Work per second of the fastest pass.

    This machine's speed drifts between regimes up to 2x apart for seconds
    at a time; the fastest of many short passes repeats from run to run,
    where their median follows whichever regime a run happened to meet.
    """
    return max(w / s for w, s in samples) * scale


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(BENCH))
    import layers
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    main_section, probes, reps = workloads.build(args.workload, args.seed)
    sections = [main_section] + probes
    if tracer:
        tracer.active = True
    main_section.setup()
    if tracer:
        tracer.active = False
    for s in probes:
        s.setup()
    setup_s = time.perf_counter() - T_PROCESS

    tag = f"{args.workload}-s{args.seed}{'-trace' if args.trace else ''}"
    workdir = OUT / f"tmp-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def run_probes():
        with tracer.paused("bench.probes") if tracer else contextlib.nullcontext():
            for _ in range(reps):
                for s in probes:
                    s.run_pass(workdir)

    try:
        t_begin = time.perf_counter()
        rounds = 0
        while True:
            if tracer:
                tracer.active = True
            main_section.run_pass(workdir, between=run_probes)
            if tracer:
                tracer.active = False
            rounds += 1
            if time.perf_counter() - t_begin >= args.seconds:
                break
        measured_s = time.perf_counter() - t_begin
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = []
        for s in sections:
            errors += s.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    by_kind = {s.kind: s for s in sections}
    e2e = {
        "setup_s": (setup_s, "s"),
        "train_steps_per_s": (best_rate(by_kind["train"].samples), "steps/s"),
        "quantize_melem_per_s": (best_rate(by_kind["quantize"].samples, 1e-6), "Melem/s"),
        "dot_elems_per_s": (best_rate(by_kind["dot"].samples), "elements/s"),
        "instr_calls_per_s": (best_rate(by_kind["dot"].instr_samples), "calls/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    e2e = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    attempted = sum(s.attempted for s in sections)
    failed = sum(s.failed for s in sections)
    simulated = {s.name: s.simulated() for s in sections}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "measured_s": measured_s,
        "correct": not errors, "errors": errors, "attempted": attempted, "failed": failed,
        "fail_messages": [m for s in sections for m in s.fail_messages],
        "end_to_end": e2e, "simulated": simulated,
        "f16_cast_melem_per_s": max(by_kind["quantize"].roofline) / 1e6,
        "samples": {"train": by_kind["train"].samples, "quantize": by_kind["quantize"].samples,
                    "dot": by_kind["dot"].samples, "instr": by_kind["dot"].instr_samples},
    }
    metrics = e2e
    if tracer:
        units = {name: unit for name, unit, _ in layers.metric_specs()}
        per_layer = layers.metrics(tracer)
        metrics = {k: {"value": per_layer[k], "unit": units[k]} for k in units}
        record["per_layer"] = metrics
        tracer.dump(OUT / f"spans-{tag}.json")
        tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for e in errors + record["fail_messages"]:
        print(f"bench: {e}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} rounds={rounds} measured_s={measured_s:.3f} "
          f"f16_cast_melem_per_s={record['f16_cast_melem_per_s']:.1f}")
    if tracer:
        print("E2E " + json.dumps(e2e, sort_keys=True))
    print("SIMULATED " + json.dumps(simulated, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
