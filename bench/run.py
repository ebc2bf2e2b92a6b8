"""pbwkit benchmark: four workloads, end-to-end timings, a traced run.

One run, in a fresh interpreter, from the repository root:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

All workloads, each in its own interpreter, interleaved over repeats, with
one summary row per workload:

    python3 bench/run.py --all [--repeats R] [--seed N] [--seconds S] [--trace 0|1]

Workloads (closed loop: one client, one item at a time, no queue):

* ``gallery-check``: ``pbwkit check FILE --json`` on the 10 bundled files
  over Q.  Mostly the display tables: engine ``annihilator_dim``,
  ``gr_table`` ladder reruns and ``dim_d``.
* ``random-crosscheck``: ``pn_ladder(P, 6)``, ``engine_for(P)`` and
  ``annihilator_dim(n)`` for n <= 6 on 40 acceptance-sampler
  presentations; checks (J_n) <=> ann^n = 0.  Engine ideal inserts with
  growing coefficients.
* ``random-homology``: minimized R_P, ``tor3_resolution`` against
  ``tor_bar`` through degree 6, then ``complexity``, on 16 presentations
  of the seed + 2 sample.  Graded ideals and ``nf_word`` reads only: no
  ladder, no engine.
* ``gallery-check-fp``: ``gallery-check`` with ``--field Fp:32003``, the
  only workload on ``ModInt``/``PrimeField``.

An untraced run (``--trace 0``) makes ``max(ceil(20 / items per pass),
round(S / nominal pass time))`` passes over the workload's item list, after
one untimed call of the first item; the pass count depends only on S, so
every commit is measured on the same samples.  Every time is paced
(``pace.py``): converted to seconds on a host of fixed speed by a reference
workload sampled all through the run, because the speed of a shared host
drifts by up to 2x.  Raw pass times are printed too.  It reports:

* ``setup_s``: import of pbwkit plus building the inputs, median of 5
  set-ups spread over the run (modules are dropped from ``sys.modules``
  and imported again);
* ``wall_s``: median time of one pass;
* ``item_p50_s``: median item time over all passes (nearest rank);
* ``item_tail_s``: item time at the highest nearest-rank percentile with
  at least 10 item timings beyond it (p50 for 20 timings, p75 for 40);
* ``peak_rss_mb``: peak resident memory of the run's process.

Every item's output is checked (``workloads.py``).  ``failed_frac`` = failed
/ attempted is printed with the sample counts; it is left out of the JSON
metrics because it is 0 whenever the outputs are right.

A traced run (``--trace 1``) makes one untraced pass and one pass under
``tracer.Tracer`` and reports the per-layer metrics (span times in raw
seconds), plus ``trace.overhead_frac`` (paced traced pass / paced untraced
pass - 1), ``host.calib_s`` (median seconds per reference unit over the
run, for telling host drift from code changes) and
``extension.word_cache.size`` (the class-level ``ZMonomials._word_cache``
summed over items).  Before each item the word cache is emptied and the
garbage collector run, so every item starts from the state a CLI call has.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from pace import PERIOD_S, Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20260810
SETUP_REPEATS = 5
MIN_ITEM_TIMINGS = 20
WORKLOAD_NAMES = ("gallery-check", "random-crosscheck", "random-homology",
                  "gallery-check-fp")
OWN_MODULES = ("gen", "workloads", "tracer")
TRACE_EXTRAS = ("trace.overhead_frac", "extension.word_cache.size", "host.calib_s")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_s", "s"),
              ("item_tail_s", "s"), ("peak_rss_mb", "MB"))


def _own_module(name):
    return name == "pbwkit" or name.startswith("pbwkit.") or name in OWN_MODULES


def fresh_setup(name, seed, pace, keep=True):
    """Drop pbwkit and the benchmark modules, import them again and build
    the workload's items.  Returns (``Pace.since`` interval of the import
    and build, workloads module, items).  With ``keep=False`` the modules
    in use before are put back."""
    saved = {m: sys.modules.pop(m) for m in list(sys.modules) if _own_module(m)}
    gc.collect()
    mark = pace.mark()
    wmod = importlib.import_module("workloads")
    items = wmod.WORKLOADS[name].build(seed, wmod.load_reference())
    interval = pace.since(mark)
    if not keep:
        for m in [m for m in sys.modules if _own_module(m)]:
            del sys.modules[m]
        sys.modules.update(saved)
    return interval, wmod, items


def nearest_rank(values, pct):
    xs = sorted(values)
    return xs[max(math.ceil(pct / 100.0 * len(xs)) - 1, 0)]


def tail(values):
    """(value, percentile) at the highest nearest-rank percentile with at
    least 10 values beyond it."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


class Runner:
    def __init__(self, wmod, wl, items, pace, before_item=None):
        self.wmod = wmod
        self.wl = wl
        self.items = items
        self.pace = pace
        self.before_item = before_item  # called with the running item count
        self.attempted = 0
        self.failed = 0
        self.words = 0

    def _word_cache(self):
        cache = getattr(getattr(self.wmod.extension, "ZMonomials", None),
                        "_word_cache", None)
        return cache if isinstance(cache, dict) else {}

    def one_pass(self, tracer=None):
        """Run every item once; returns the items' ``Pace.since``
        intervals."""
        intervals = []
        self.words = 0
        for item in self.items:
            if self.before_item is not None:
                self.before_item(self.attempted)
            self._word_cache().clear()
            gc.collect()
            mark = self.pace.mark()
            try:
                out = self.wl.run(item)
            except Exception:
                intervals.append(self.pace.since(mark))
                ok = False
                traceback.print_exc(file=sys.stderr)
            else:
                intervals.append(self.pace.since(mark))
                try:
                    ok = self.wl.check(item, out)
                except Exception:
                    ok = False
                    traceback.print_exc(file=sys.stderr)
                del out
            if tracer is not None:
                tracer.flush()
                self.words += len(self._word_cache())
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED {self.wl.name} item {item[0]}", file=sys.stderr)
        return intervals


def fmt(x):
    return f"{x:.6g}"


def run_one(args):
    if not (ROOT / "src" / "pbwkit" / "__init__.py").is_file():
        print(f"error: no pbwkit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    pace = Pace().start()
    try:
        return _measure(args, pace)
    finally:
        pace.stop()


def _measure(args, pace):
    interval, wmod, items = fresh_setup(args.workload, args.seed, pace)
    setups = [interval]
    import pbwkit
    if Path(pbwkit.__file__).resolve().parent != ROOT / "src" / "pbwkit":
        print(f"error: imported pbwkit from {pbwkit.__file__}", file=sys.stderr)
        return 2
    wl = wmod.WORKLOADS[args.workload]
    passes = max(math.ceil(MIN_ITEM_TIMINGS / len(items)),
                 round(args.seconds / wl.nominal_pass_s))
    # the other set-ups are spread over the run, so that their median
    # sees the same host as the passes
    total = passes * len(items)
    setup_at = {round(j * total / SETUP_REPEATS) for j in range(1, SETUP_REPEATS)}

    def between_items(done):
        if not args.trace and done in setup_at:
            setups.append(fresh_setup(args.workload, args.seed, pace, keep=False)[0])

    runner = Runner(wmod, wl, items, pace, before_item=between_items)
    # one untimed call first, so that one-time work inside the process
    # (first-call imports, compiled patterns) is not charged to the item
    # that happens to run first
    try:
        wl.run(items[0])
    except Exception:
        pass  # counted when the item runs in a pass
    passes_iv = []
    metrics = {}
    if args.trace:
        import tracer as tracer_mod
        passes_iv.append(runner.one_pass())
        tr = tracer_mod.Tracer().install()
        try:
            passes_iv.append(runner.one_pass(tracer=tr))
        finally:
            tr.uninstall()
        metrics.update(tr.metrics())
        metrics["extension.word_cache.size"] = runner.words
        counts = tr.counts()
    else:
        for _ in range(passes):
            passes_iv.append(runner.one_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # let the sampler see the host just after the last interval
    time.sleep(2 * PERIOD_S)
    pace.stop()
    raw_passes = [sum(iv[2] for iv in p) for p in passes_iv]
    pass_times = [sum(pace.normalize(iv) for iv in p) for p in passes_iv]
    measured = passes_iv[1:] if args.trace else passes_iv
    item_times = [pace.normalize(iv) for p in measured for iv in p]
    if args.trace:
        metrics["trace.overhead_frac"] = pass_times[1] / pass_times[0] - 1.0
    setups = [pace.normalize(iv) for iv in setups]
    n_items = len(item_times)
    tail_value, pct = tail(item_times)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_times),
        "item_p50_s": nearest_rank(item_times, 50),
        "item_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"items/pass {len(items)}  passes {len(pass_times)}")
    print("  raw pass seconds " + " ".join(fmt(x) for x in raw_passes)
          + ", paced " + " ".join(fmt(x) for x in pass_times))
    if args.trace:
        for key in sorted(counts):
            print(f"  count {key} = {counts[key]}")
        for key in sorted(metrics):
            print(f"  {key} = {fmt(metrics[key])}")
    else:
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "wall_s": f"median of {len(pass_times)} passes",
            "item_p50_s": f"p50 of {n_items} item timings",
            "item_tail_s": f"p{pct:.4g} of {n_items} item timings "
                           f"(highest with >= 10 beyond)",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        for key, unit in END_TO_END:
            print(f"  {key:<12} {fmt(e2e[key]):>12} {unit:<3} {notes[key]}")
    print(f"  {'failed_frac':<12} {fmt(runner.failed / runner.attempted):>12} "
          f"    {runner.failed} of {runner.attempted} items")
    unit_s = pace.unit_s
    calib = statistics.median(unit_s)
    print(f"  host.calib_s {fmt(calib)} s per reference unit (median of "
          f"{len(unit_s)} samples; first {fmt(unit_s[0])}, last {fmt(unit_s[-1])}, "
          f"range {fmt(min(unit_s))}..{fmt(max(unit_s))})")
    if args.trace:
        metrics["host.calib_s"] = calib
        out = {k: {"value": v, "unit": per_layer_unit(k)}
               for k, v in sorted(metrics.items())}
    else:
        out = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": out}))
    return 0


def per_layer_unit(key):
    if key.endswith(".s") or key.endswith(".self_s") or ".s." in key \
            or key == "host.calib_s":
        return "s"
    if "frac" in key:
        return "frac"
    if "bits" in key:
        return "bits"
    return "count"


def run_all(args):
    """Each workload in a fresh interpreter, interleaved over repeats; one
    summary row per workload (medians over repeats)."""
    results = {name: [] for name in WORKLOAD_NAMES}
    for _ in range(args.repeats):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            results[name].append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print()
    if args.trace:
        return 0
    header = ["workload", "runs"] + [f"{k} [{u}]" for k, u in END_TO_END] \
        + ["failed_frac", "failed/attempted"]
    print("  ".join(f"{h:>16}" for h in header))
    for name, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        cells = [name, str(len(runs))]
        cells += [fmt(statistics.median(r["metrics"][k]["value"] for r in runs))
                  for k, _ in END_TO_END]
        cells += [fmt(failed / attempted), f"{failed}/{attempted}"]
        print("  ".join(f"{c:>16}" for c in cells))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be positive")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
