"""Record ``reference.json``: the outputs the benchmark checks against.

    python3 bench/record.py

Gallery workloads: exit code and ``--json`` report minus ``timings`` for
every bundled file, over Q and over F_32003.  Random workloads: the answers
for the unsigned presentations.  Run it only at a commit whose outputs are
trusted; the benchmark counts every later difference as a failed item.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pbwkit  # noqa: E402
from pbwkit.deformation import FilteredSubspace  # noqa: E402

import workloads  # noqa: E402


def main():
    ref = {"gallery": {}}
    for wl in workloads.WORKLOADS.values():
        if isinstance(wl, workloads.GalleryCheck):
            out = {}
            for name in pbwkit.gallery_names():
                item = (name, str(pbwkit.gallery_path(name)), None)
                out[name] = wl.observed(wl.run(item))
            ref["gallery"][wl.ref_key] = out
        else:
            rows = []
            for i, (g, elems) in enumerate(wl.base()):
                item = (i, FilteredSubspace(g, elems), None)
                result = wl.run(item)
                rows.append(wl.observed(result))
                if not wl.check(item[:2] + (rows[-1],), result):
                    raise SystemExit(f"{wl.name} item {i} fails its own cross-check")
            ref[wl.name] = rows
        print(f"recorded {wl.name}", flush=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
