"""Spans and counters recorded around calls into the copolymer package.

The benchmark traces from the outside: it replaces a public function with a
timing wrapper under the name its calling module imported it as (for
example ``copolymer.estimators.log_partition_curve``), runs the workload,
and puts the originals back. Spans live in memory until the run writes
them out. The traced run uses ``--threads 1`` so every call happens in this
process; a forked pool worker would record into its own copy of the tracer.
"""

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# Each inner-sum term of the renewal DP streams three float64 operands: the
# previous table entry, the kernel entry and the prefix-sum entry.
BYTES_PER_CELL = 3 * 8


def triangle(length):
    """Inner-sum terms of one forward pass over ``length`` sites."""
    return length * (length + 1) // 2


def _count_curve(tracer, fn, args, kwargs):
    tracer.counts["partition.dp_cells"] += triangle(args[0].n)
    return fn(*args, **kwargs)


def _count_tables(tracer, fn, args, kwargs):
    # forward plus backward pass
    tracer.counts["partition.dp_cells"] += 2 * triangle(args[0].n)
    return fn(*args, **kwargs)


def _count_shifted(tracer, fn, args, kwargs):
    j, d = args[0], args[1]
    stop = args[4] if len(args) > 4 else kwargs.get("stop")
    tracer.counts["partition.dp_cells"] += triangle((stop or d.n) - j)
    return fn(*args, **kwargs)


def _count_segment(tracer, fn, args, kwargs):
    # segment_tables caches anchors on the tables object; a hit does no DP
    j, d = args[0], args[1]
    tables = args[4] if len(args) > 4 else kwargs.get("tables")
    if tables is None or j not in tables._segments:
        tracer.counts["partition.dp_cells"] += triangle(d.n - j)
    return fn(*args, **kwargs)


def _count_path(tracer, fn, args, kwargs):
    path = fn(*args, **kwargs)
    tracer.counts["observables.returns_drawn"] += len(path.returns)
    tracer.paths.append(path.returns)
    return path


# (calling module, imported name, span name, counting hook). Names a later
# version of the package no longer imports are skipped.
CALL_SITES = (
    ("copolymer.cli", "run_command", "cli.run", None),
    ("copolymer.cli", "build_kernel", "kernel.build", None),
    ("copolymer.cli", "sample_disorder", "disorder.draw", None),
    ("copolymer.cli", "freeze_zero_disorder", "disorder.draw", None),
    ("copolymer.cli", "log_partition_curve", "partition.curve", _count_curve),
    ("copolymer.cli", "forward_tables", "partition.tables", _count_tables),
    ("copolymer.cli", "contact_profile", "observables.profile", None),
    ("copolymer.cli", "sample_path", "observables.sample_path", _count_path),
    ("copolymer.estimators", "sample_disorder", "disorder.draw", None),
    ("copolymer.estimators", "freeze_zero_disorder", "disorder.draw", None),
    ("copolymer.estimators", "log_partition_curve", "partition.curve",
     _count_curve),
    ("copolymer.estimators", "shifted_log_partition_curve",
     "partition.segment", _count_shifted),
    ("copolymer.estimators", "forward_tables", "partition.tables",
     _count_tables),
    ("copolymer.estimators", "sample_path", "observables.sample_path",
     _count_path),
    ("copolymer.estimators", "excursion_law", "observables.exclaw", None),
    ("copolymer.observables", "segment_tables", "partition.segment",
     _count_segment),
    # the library workload calls these through the package namespace
    ("copolymer", "sample_disorder", "disorder.draw", None),
    ("copolymer", "forward_tables", "partition.tables", _count_tables),
    ("copolymer", "contact_profile", "observables.profile", None),
    ("copolymer", "log_z_gradients", "observables.gradients", None),
    ("copolymer", "excursion_law", "observables.exclaw", None),
    ("copolymer", "ursell_from_tables", "observables.joint", None),
)


def estimator_entry_points():
    """Public estimator functions, as the CLI reaches them (``est.<name>``)."""
    est = importlib.import_module("copolymer.estimators")
    return [("copolymer.estimators", name, "estimators.call", None)
            for name, obj in sorted(vars(est).items())
            if callable(obj) and not name.startswith("_")
            and getattr(obj, "__module__", None) == est.__name__
            and not isinstance(obj, type)]


class Tracer:
    """Nested spans (id, name, parent id, start, end) plus counters.

    Calls are assumed to run on one thread, so the open spans form a stack.
    """

    def __init__(self, call_sites):
        self.call_sites = list(call_sites)
        self.spans = []
        self.counts = Counter()
        self.paths = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        for module_name, attr, span_name, hook in self.call_sites:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name, hook))
            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, span_name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), span_name,
                    self._stack[-1] if self._stack else None,
                    perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
        return traced

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child_time = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = Counter()
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for span_id, name, _, start, end in self.spans:
            calls[name] += 1
            inclusive[name] += end - start
            own[name] += end - start - child_time[span_id]
        return calls, inclusive, own

    def records(self):
        return [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, n, p, s, e in self.spans]


class PoolCounter:
    """Counts the process pools ``copolymer.estimators`` starts and the time
    they spend outside task work: construction, worker start and task
    submission inside ``map``, and shutdown."""

    def __init__(self):
        self.pools = 0
        self.tasks = 0
        self.overhead_s = 0.0
        self._module = None
        self._original = None

    def __enter__(self):
        self._module = importlib.import_module("copolymer.estimators")
        self._original = base = self._module.ProcessPoolExecutor
        counter = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                started = perf_counter()
                super().__init__(*args, **kwargs)
                counter.pools += 1
                counter.overhead_s += perf_counter() - started

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                counter.tasks += len(iterables[0]) if iterables else 0
                started = perf_counter()
                results = super().map(fn, *iterables, **kwargs)
                counter.overhead_s += perf_counter() - started
                return results

            def shutdown(self, *args, **kwargs):
                started = perf_counter()
                super().shutdown(*args, **kwargs)
                counter.overhead_s += perf_counter() - started

        self._module.ProcessPoolExecutor = CountingPool
        return self

    def __exit__(self, *exc):
        self._module.ProcessPoolExecutor = self._original
        return False
