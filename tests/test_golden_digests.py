"""Training artifacts pinned by sha256.

Each config below is one of the benchmark's training configs (the 18 of
the format sweep and the 3 of the cnn), cut to a few steps.  A change to
any kernel on the training path must leave ``loss.csv``,
``telemetry.csv`` and ``summary.json`` byte-identical, so their digests
are committed in ``tests/data/golden_digests.json``.

Regenerate the file only for a change meant to alter training output:
``PYTHONPATH=src python tests/test_golden_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from fpemu.training import resolve_config, train

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"
ARTIFACTS = ("loss.csv", "telemetry.csv", "summary.json")
STEPS = 8
SEED = 4242
DLS = {"dls": "on", "growth_interval": "200"}

_SWEEP_FORMATS = [("none", {}), ("1/8/23/d", {}), ("1/5/10/d", {}), ("1/5/10/d", DLS),
                  ("1/6/9/d", {}), ("1/6/9/n", DLS), ("1/8/7/n", {})]
CONFIGS = (
    [{"task": task, "format": f, **extra}
     for task in ("regression", "mlp_classify") for f, extra in _SWEEP_FORMATS]
    + [{"task": "mlp_classify", "format": "1/6/9/n", "mode": m, **DLS}
       for m in ("mac", "macs", "fmac", "fmac8")]
    + [{"task": "cnn_classify", "format": "none"},
       {"task": "cnn_classify", "format": "1/6/9/n", **DLS},
       {"task": "cnn_classify", "format": "1/5/10/d", "mode": "macs", **DLS}]
)


def _config(entries: dict):
    return resolve_config({**entries, "steps": str(STEPS), "seed": str(SEED)})


def _digests(entries: dict, root: Path) -> dict[str, str]:
    cfg = _config(entries)
    out = root / cfg.run_id()
    train(cfg, out_dir=out)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACTS}


def test_golden_file_covers_every_config():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(_config(e).run_id() for e in CONFIGS)


@pytest.mark.parametrize("entries", CONFIGS, ids=lambda e: _config(e).run_id())
def test_training_artifacts_match_golden_digests(entries, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert _digests(entries, tmp_path) == golden[_config(entries).run_id()]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {_config(e).run_id(): _digests(e, Path(tmp)) for e in CONFIGS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} configs to {GOLDEN}", file=sys.stderr)
