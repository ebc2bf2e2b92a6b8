"""Per-module spans and ``RowSpace`` counters, recorded from outside pbwkit.

``Tracer.install()`` wraps the public functions of the traced modules, and
the public methods and constructors of the classes they define, in place:
module attributes and class attributes are swapped for timing wrappers,
and so is every alias another loaded module imported by name.
``uninstall()`` puts the originals back.  Nothing in pbwkit changes.

Every wrapped call is a span.  A span's time is charged to its own name
(``<module>.<function>``); calls into ``linalg`` are in addition charged to
the *caller*, the innermost open span of another traced module.  Self time
is a span's duration minus the time its child spans cover.

``RowSpace``s returned by wrapped calls (directly, or one attribute or
container level down, e.g. ``JacobiLadder.spaces``) are read at
``flush()``: rank, stored nonzeros and the largest coefficient size in
bits.  A space returned by a ``linalg`` call counts for the caller, any
other for the module that returned it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("deformation", "extension", "gradedring", "homology", "linalg")
CALLERS = ("deformation", "extension", "gradedring", "homology")
# Scalar arithmetic and monomial indexing sit below the layers the trace
# reports (freealg's word bases are not traced either).
SKIP_CLASSES = frozenset({"ModInt", "RationalField", "PrimeField", "ZMonomials"})


def coeff_bits(s):
    """Size of one scalar in bits: the larger of numerator and denominator
    for a rational, the residue for a ModInt."""
    if hasattr(s, "denominator"):
        return max(abs(s.numerator).bit_length(), s.denominator.bit_length())
    return s.v.bit_length()


def space_stats(sp):
    """(rank, nnz, max coefficient bits) of one RowSpace."""
    nnz = 0
    bits = 0
    for row in sp.pivots.values():
        nnz += len(row)
        for s in row.values():
            b = coeff_bits(s)
            if b > bits:
                bits = b
    return len(sp.pivots), nnz, bits


class Tracer:
    def __init__(self):
        self.calls = Counter()            # span name -> calls
        self.total = defaultdict(float)   # span name -> inclusive seconds
        self.self_s = defaultdict(float)  # span name -> self seconds
        self.by_caller = Counter()        # (linalg op, caller, what) -> calls or zeros
        self.time_by_caller = defaultdict(float)  # (linalg op, caller) -> seconds
        self.rank = Counter()             # owner module -> summed rank
        self.nnz = Counter()
        self.bits = Counter()             # owner module -> max bits
        self._stack = []                  # open spans: [module, name, child seconds]
        self._open = Counter()            # span name -> open count (recursion)
        self._pending = {}                # id(RowSpace) -> (space, owner)
        self._patches = []                # (holder, attribute, original)
        self._row_space = None

    # -- installing ---------------------------------------------------------

    def install(self):
        linalg = importlib.import_module("pbwkit.linalg")
        self._row_space = linalg.RowSpace
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"pbwkit.{short}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(obj, short, name)
                    originals[id(obj)] = (obj, wrapped)
                    self._patch(mod, name, wrapped)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and name not in SKIP_CLASSES):
                    self._wrap_class(obj, short)
        # aliases made by ``from .module import name`` elsewhere
        holders = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pbwkit" or n.startswith("pbwkit."))]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        return self

    def uninstall(self):
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def _patch(self, holder, name, value):
        self._patches.append((holder, name, holder.__dict__[name]))
        setattr(holder, name, value)

    def _wrap_class(self, cls, short):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            label = cls.__name__ if name == "__init__" else name
            if isinstance(attr, (classmethod, staticmethod)):
                kind = type(attr)
                self._patch(cls, name, kind(self._wrap(attr.__func__, short, label)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, short, label,
                                                  is_init=name == "__init__"))

    def _wrap(self, fn, short, name, is_init=False):
        key = f"{short}.{name}"
        is_linalg = short == "linalg"
        tracer = self

        def span(*args, **kwargs):
            stack = tracer._stack
            caller = None
            if is_linalg:
                for frame in reversed(stack):
                    if frame[0] != "linalg":
                        caller = frame[0]
                        break
                else:
                    caller = "other"
            frame = [short, key, 0.0]
            stack.append(frame)
            tracer._open[key] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                tracer._open[key] -= 1
                if stack:
                    stack[-1][2] += dur
                tracer.calls[key] += 1
                tracer.self_s[key] += dur - frame[2]
                if not tracer._open[key]:
                    tracer.total[key] += dur
                if is_linalg:
                    tracer.by_caller[(name, caller, "calls")] += 1
                    tracer.time_by_caller[(name, caller)] += dur
            if is_linalg:
                if out is None and name == "insert":
                    tracer.by_caller[(name, caller, "zeros")] += 1
                elif type(out) is tracer._row_space:
                    tracer._pending.setdefault(id(out), (out, caller))
            else:
                tracer._collect(args[0] if is_init else out, short)
            return out

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        return span

    # -- RowSpace reads -------------------------------------------------------

    def _collect(self, value, owner):
        """Queue the RowSpaces in ``value``: itself, or one container or
        attribute level down (e.g. ``JacobiLadder.spaces``)."""
        if isinstance(value, dict):
            inner = list(value.values())
        elif isinstance(value, (list, tuple)):
            inner = list(value)
        elif hasattr(value, "__dict__") and not inspect.isclass(value):
            inner = []
            for v in vars(value).values():
                if isinstance(v, dict):
                    inner.extend(v.values())
                elif isinstance(v, (list, tuple)):
                    inner.extend(v)
                else:
                    inner.append(v)
        else:
            inner = [value]
        for v in inner:
            if isinstance(v, self._row_space):
                self._pending.setdefault(id(v), (v, owner))

    def flush(self):
        """Read every RowSpace returned since the last flush, then drop
        the references so the item's memory can be freed."""
        for sp, owner in self._pending.values():
            rank, nnz, bits = space_stats(sp)
            self.rank[owner] += rank
            self.nnz[owner] += nnz
            self.bits[owner] = max(self.bits[owner], bits)
        self._pending.clear()

    # -- reporting --------------------------------------------------------------

    def counts(self):
        """The exact counts a repeat of the same traced pass must reproduce."""
        out = {f"calls.{k}": v for k, v in sorted(self.calls.items())}
        for (op, caller, what), v in sorted(self.by_caller.items()):
            out[f"linalg.{op}.{what}.{caller}"] = v
        for caller in sorted(set(self.rank) | set(self.bits)):
            out[f"linalg.rank.{caller}"] = self.rank[caller]
            out[f"linalg.nnz.{caller}"] = self.nnz[caller]
            out[f"linalg.max_coeff_bits.{caller}"] = self.bits[caller]
        return out

    def metrics(self):
        """Per-layer metric values by name (see BENCHMARK.json)."""
        m = {}
        for key in ("deformation.pbw_check", "deformation.gr_table",
                    "deformation.pn_ladder", "extension.ideal_component",
                    "extension.annihilator_dim", "extension.dim_d",
                    "gradedring.ideal_component", "homology.complexity",
                    "homology.tor3_resolution", "homology.tor_bar"):
            m[f"{key}.s"] = self.total[key]
            m[f"{key}.self_s"] = self.self_s[key]
        m["gradedring.nf_word.calls"] = self.calls["gradedring.nf_word"]
        for caller in CALLERS:
            inserts = self.by_caller[("insert", caller, "calls")]
            zeros = self.by_caller[("insert", caller, "zeros")]
            m[f"linalg.insert.calls.{caller}"] = inserts
            m[f"linalg.insert.s.{caller}"] = self.time_by_caller[("insert", caller)]
            m[f"linalg.insert.zero_frac.{caller}"] = zeros / inserts if inserts else 0.0
            m[f"linalg.reduce_full.calls.{caller}"] = \
                self.by_caller[("reduce_full", caller, "calls")]
            m[f"linalg.reduce_full.s.{caller}"] = \
                self.time_by_caller[("reduce_full", caller)]
            m[f"linalg.rank.{caller}"] = self.rank[caller]
            m[f"linalg.nnz.{caller}"] = self.nnz[caller]
            m[f"linalg.max_coeff_bits.{caller}"] = self.bits[caller]
        return m
