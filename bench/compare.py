"""Compare two benchmark records, e.g. one per commit, for the same workload and seed.

    python3 bench/compare.py OLD.json NEW.json

Records are the files a run writes to ``bench/out/<workload>-s<seed>.json``.
Prints every simulated statistic that differs (a change that only affects
speed must leave them all identical; exit status 1 if any differ) and the
end-to-end metrics of both records side by side.
"""

from __future__ import annotations

import json
import sys


def _flatten(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, path + (k,))
    else:
        yield " / ".join(path), obj


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(open(p).read()) for p in argv)
    a, b = dict(_flatten(old["simulated"])), dict(_flatten(new["simulated"]))
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in differ:
        print(f"DIFFERS  {k}: {a.get(k)!r} -> {b.get(k)!r}")
    print(f"simulated statistics: {len(a)} compared, {len(differ)} differ")
    for name, m in old["end_to_end"].items():
        v_new = new["end_to_end"][name]["value"]
        print(f"{name:24s} {m['value']:14.6g} -> {v_new:14.6g} {m['unit']}"
              f"  ({v_new / m['value'] - 1:+.1%})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
