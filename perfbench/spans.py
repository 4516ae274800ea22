"""Spans around the calls into the package's layers, and the per-layer
figures computed from them.

The tracer replaces each public function of the six package modules at
every module attribute that names it (``qcomplement.cli.verify_equality``,
``qcomplement.harness.sweep_interferogram``, ...). Callers inside the package
look those attributes up at call time, so every call that crosses a named
function boundary is timed from outside the package, without editing it.
Private helpers (``_interferogram_rows``, ``_joint_from_y``, ...) are not
wrapped; their time counts as self time of the function that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("cli", "harness", "states", "measures", "core", "interferometer")

# A span is (name, start, end, parent index or -1, op id, attrs or None).
NAME, START, END, PARENT, OP, ATTRS = range(6)

SWEEPS = ("interferometer.sweep_interferogram",
          "interferometer.sweep_interferogram_density")


def _sweep_attrs(args, kwargs, result) -> dict | None:
    """Grid points and result-array bytes of a sweep call; None if the
    sweep's signature or result no longer has the fields read here."""
    try:
        grid = kwargs["grid"] if "grid" in kwargs else args[2]
        n1, n2 = grid.phi1_values.size, grid.phi2_values.size
        # ``corrected`` is a view of ``corrected_full`` and adds no memory.
        nbytes = sum(getattr(result, f).nbytes
                     for f in ("joint", "single_a", "single_bc", "corrected_full"))
    except (AttributeError, IndexError):
        return None
    return {"grid_points": n1 * n2 if grid.mode == "independent" else n1,
            "array_bytes": nbytes}


class Tracer:
    """Records spans while an operation is active (``op`` is not None)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._stack = []
        self._restore = []

    def wrap(self, name: str, fn):
        attrs_of = _sweep_attrs if name in SWEEPS else None
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.op, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if attrs_of is not None:
                spans[index][ATTRS] = attrs_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package: str = "qcomplement") -> int:
        """Wrap every public function of the package's modules wherever a
        module binds it; returns the number of bindings wrapped."""
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        owners = {f"{package}.{m}": m for m in MODULES}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in owners):
                    continue
                name = f"{owners[value.__module__]}.{value.__name__}"
                self._restore.append((module, attr, value))
                setattr(module, attr, self.wrap(name, value))
        return len(self._restore)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()


def span_cost(calls: int = 20000) -> float:
    """Seconds that recording one span adds to a call, measured on a no-op."""
    tracer = Tracer()

    def bare():
        return None

    wrapped = tracer.wrap("bench.noop", bare)
    tracer.op = 0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        bare()
    t2 = time.perf_counter()
    return max(0.0, (t1 - t0) - (t2 - t1)) / calls


# ---------------------------------------------------------------------------
# Span-tree arithmetic
# ---------------------------------------------------------------------------

def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _children(spans) -> list:
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_self(spans) -> dict:
    """Seconds spent in each layer's own code, summed over its spans."""
    out = {m: 0.0 for m in MODULES}
    for s, t in zip(spans, self_times(spans)):
        out[layer_of(s[NAME])] = out.get(layer_of(s[NAME]), 0.0) + t
    return out


def _outermost(spans, member) -> list:
    """Indices of spans in the group with no ancestor in the group."""
    out = []
    for i, s in enumerate(spans):
        if not member(s[NAME]):
            continue
        p = s[PARENT]
        while p >= 0 and not member(spans[p][NAME]):
            p = spans[p][PARENT]
        if p < 0:
            out.append(i)
    return out


def group_time(spans, member, exclusive: bool = False) -> float:
    """Seconds inside calls to the group's functions (``member(name)``).

    Nested calls within the group count once. With ``exclusive`` the time of
    calls the group makes to functions outside it is left out.
    """
    kids = _children(spans) if exclusive else None
    total = 0.0
    for i in _outermost(spans, member):
        total += spans[i][END] - spans[i][START]
        if exclusive:
            todo = list(kids[i])
            while todo:
                j = todo.pop()
                if member(spans[j][NAME]):
                    todo.extend(kids[j])
                else:
                    total -= spans[j][END] - spans[j][START]
    return total


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------

DIRECT = {"measures.concurrence_bipartition", "measures.predictability",
          "measures.single_visibility_direct", "measures.single_particle_character"}
BASIS = {"measures.preferred_basis", "measures.table_basis", "measures.theta_angles"}
VISIBILITY = {"interferometer.visibility_two_party",
              "interferometer.corrected_port_visibility",
              "interferometer.extended_basis_visibility",
              "interferometer.visibility_single"}


def layer_figures(spans, states: int, ops: int) -> dict:
    """Every per-layer figure of a traced run, keyed by metric name.

    ``states`` is the number of states the run processed and ``ops`` the
    number of CLI commands. Times are totals over the run divided by those.
    """
    own = layer_self(spans)
    sweeps = [s[ATTRS] for s in spans if s[NAME] in SWEEPS and s[ATTRS]]
    return {
        "states.construct_ms_per_state": 1e3 * own["states"] / states,
        "measures.ms_per_state":
            1e3 * group_time(spans, lambda n: layer_of(n) == "measures") / states,
        "measures.direct_ms_per_state":
            1e3 * group_time(spans, DIRECT.__contains__) / states,
        "measures.basis_ms_per_state":
            1e3 * group_time(spans, BASIS.__contains__) / states,
        "core.partial_trace_calls_per_state":
            count(spans, "core.partial_trace") / states,
        "core.hermitian_eig_calls_per_state":
            count(spans, "core.hermitian_eig") / states,
        "interferometer.self_ms_per_state": 1e3 * own["interferometer"] / states,
        "interferometer.sweep_ms_per_state":
            1e3 * group_time(spans, SWEEPS[0].__eq__) / states,
        "interferometer.grid_points_per_state":
            sum(a["grid_points"] for a in sweeps) / states,
        "interferometer.visibility_ms_per_state":
            1e3 * group_time(spans, VISIBILITY.__contains__, exclusive=True) / states,
        "interferometer.density_sweep_s_per_op":
            group_time(spans, SWEEPS[1].__eq__) / ops,
        "interferometer.sweep_array_mb":
            max((a["array_bytes"] for a in sweeps), default=0) / 2**20,
        "harness.self_ms_per_state": 1e3 * own["harness"] / states,
        "frontend.self_ms_per_state": 1e3 * (own["cli"] + own["harness"]) / states,
        "cli.self_s_per_op": own["cli"] / ops,
    }
