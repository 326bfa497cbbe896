"""Spans around the calls into shiftkit's layers, recorded from outside.

Nothing in the library is edited.  ``Tracer.installed`` swaps each traced
function for a wrapper at every place it is bound: a module-level function
is rebound in every ``shiftkit`` module that imported it by name, a method
is replaced on its class, and a suite is replaced in the ``SUITES`` dict the
command line dispatches through.  Leaving the ``with`` block restores the
originals, so untraced passes run the library exactly as shipped.

Each span has a name, start, end (on the clock the tracer is given), parent
span and operation id.  Aggregates
are kept per span name as they close: calls, inclusive time (outermost span
of that name only, so recursion is not counted twice) and self time (span
time minus the time its child spans cover).  The first ``KEEP_SPANS`` spans
are also kept as records for the trace file.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter

# (span name, module, attribute, method name if the attribute is a class).
# The span name is the layer metric prefix; several targets may share one.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("cli.parse", "cli", "read_complex", None),
    ("engine.exterior_shift", "engine", "exterior_shift", None),
    ("engine.tables", "engine", "_WedgeTables", "__init__"),
    ("engine.row", "engine", "_WedgeTables", "row"),
    ("engine.kernel_dim", "engine", "kernel_intersection_dim", None),
    ("field.check_prime", "field", "check_prime", None),
    ("field.realize", "field", "realize", None),
    ("field.insert", "field", "RowEchelonAccumulator", "insert"),
    ("field.nonsingular", "field", "FieldMatrix", "is_nonsingular"),
    ("complexes.construct", "complexes", "SimplicialComplex", "__init__"),
    ("complexes.is_shifted", "complexes", "SimplicialComplex", "is_shifted"),
    ("complexes.interval", "complexes", "interval", None),
    ("homology.betti_from_shifted", "homology", "betti_from_shifted", None),
    ("homology.betti_direct", "homology", "betti_direct", None),
    ("homology.interior_matrix", "homology", "interior_matrix", None),
    ("operators.rule", "operators", "disjoint_union_shift", None),
    ("operators.rule", "operators", "clique_sum_shift", None),
    ("operators.rule", "operators", "shifted_union_recursive", None),
    ("operators.d_value", "operators", "_d_value", None),
    ("operators.gap_family", "operators", "_gap_family", None),
)

KEEP_SPANS = 20_000


class Tracer:
    """Span recorder for one process; one thread, so one span stack."""

    def __init__(self, clock):
        self.clock = clock
        self.records: list[tuple] = []
        self.dropped = 0
        self.op = None
        self._next_id = 1
        self._stack: list[list] = []  # [name, span id, child time]
        self._active: Counter = Counter()
        self.reset()

    def reset(self) -> None:
        """Start a fresh aggregate window (one pass)."""
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn, after=None):
        stack = self._stack
        active = self._active
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [name, sid, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[2]
                if not active[name]:
                    tracer.incl[name] += dur
                if parent is not None:
                    parent[2] += dur
                if len(tracer.records) < KEEP_SPANS:
                    tracer.records.append(
                        (sid, name, t0, t1, parent[1] if parent else None, tracer.op)
                    )
                else:
                    tracer.dropped += 1
            if after is not None:
                after(result, parent[0] if parent else None)
            return result

        return traced

    # counters that need the return value or the caller's span

    def _after_insert(self, kept, parent):
        if kept:
            self.counts["field.insert.kept"] += 1
            if parent == "engine.exterior_shift":
                self.counts["engine.shift_rows_kept"] += 1

    def _after_shift(self, res, parent):
        self.counts["engine.retries"] += res.retries

    def _after_nonsingular(self, res, parent):
        if parent == "field.realize":
            self.counts["field.realize.draws"] += 1

    @contextlib.contextmanager
    def installed(self, sk):
        """Wrap every target in the freshly imported modules of ``sk``."""
        after = {
            "field.insert": self._after_insert,
            "engine.exterior_shift": self._after_shift,
            "field.nonsingular": self._after_nonsingular,
        }
        modules = [getattr(sk, m) for m in sk.MODULES]
        undo = []
        try:
            for name, mod, attr, method in TARGETS:
                owner = getattr(sk, mod)
                if method is not None:
                    cls = getattr(owner, attr)
                    orig = cls.__dict__[method]
                    setattr(cls, method, self._wrap(name, orig, after.get(name)))
                    undo.append((cls, method, orig))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig, after.get(name))
                for m in modules:
                    if m.__dict__.get(attr) is orig:
                        setattr(m, attr, wrapped)
                        undo.append((m, attr, orig))
            suites = sk.suites.SUITES
            for suite, fn in list(suites.items()):
                suites[suite] = self._wrap(f"suites.{suite}", fn)
                undo.append((suites, suite, fn))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = orig
                else:
                    setattr(owner, attr, orig)

    def snapshot(self, scale: float = 1.0) -> dict:
        """Per-name calls, times multiplied by ``scale``, and the extra
        counters of the current window."""
        return {
            "calls": dict(self.calls),
            "incl": {k: v * scale for k, v in self.incl.items()},
            "self": {k: v * scale for k, v in self.self_s.items()},
            "counts": dict(self.counts),
        }

    def counters(self) -> Counter:
        """Calls and extra counters, for per-operation differences."""
        out = Counter({f"{k}.calls": v for k, v in self.calls.items()})
        out.update(self.counts)
        return out
