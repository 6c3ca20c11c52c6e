"""Per-layer tracing of ``srs`` from outside the package.

The tracer replaces every public function of every ``srs`` module, at every
place an ``srs`` module binds it (``srs.rewrite.normalize``,
``srs.completion.normalize``, ``srs.normalize``, ...), with one wrapper that
records a span while the tracer is active.  A layer is the module that
defines the function.  Self time is a span's duration minus the time its
child spans cover.  Spans are kept in flat arrays and written out at the end
of the run; counters are updated from the wrapped calls' results.

A metric whose function no longer exists (say, after a refactor) is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import defaultdict

# Modules whose public functions are layers, in reporting order.
LAYERS = ("presentation", "rewrite", "track", "critical", "completion", "abelian", "transport", "cli")

# (metric name, unit) for every per-layer metric, in reporting order.
PER_LAYER = (
    ("rewrite.self_s", "s"),
    ("rewrite.find_redexes.self_s", "s"),
    ("rewrite.find_redexes.calls", "count"),
    ("rewrite.redexes_used_ratio", "ratio"),
    ("rewrite.normalize.steps", "count"),
    ("rewrite.apply_step.calls", "count"),
    ("rewrite.normal_path.hit_ratio", "ratio"),
    ("track.self_s", "s"),
    ("track.compose.calls", "count"),
    ("track.compose.steps_out", "count"),
    ("critical.self_s", "s"),
    ("critical.critical_branchings.calls", "count"),
    ("critical.branchings_listed", "count"),
    ("completion.self_s", "s"),
    ("completion.knuth_bendix.total_s", "s"),
    ("completion.rules_added", "count"),
    ("completion.rules_removed", "count"),
    ("completion.added_per_branching", "ratio"),
    ("abelian.self_s", "s"),
    ("abelian.decompose_loop.self_s", "s"),
    ("abelian.verify_certificate.total_s", "s"),
    ("abelian.certificate_entries", "count"),
    ("transport.self_s", "s"),
    ("transport.functor_image.total_s", "s"),
    ("transport.comparison_path.total_s", "s"),
    ("transport.loop_steps", "count"),
    ("presentation.self_s", "s"),
    ("presentation.parse_presentation.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.main.total_s", "s"),
    ("trace.overhead_s", "s"),
)

ROOT_SPAN = "bench.op"


class Tracer:
    """Wraps the public functions of a package's modules and records spans."""

    def __init__(self, package: str = "srs", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.active = False
        self.names: list[str] = [ROOT_SPAN]
        self.originals: dict[str, object] = {}
        self._fids: dict[str, int] = {}
        self.broken: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        # spans: function id, parent span index (-1 for none), start, end
        self.fid = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[list] = []  # [span index, fid, start, child time]
        self._depth: dict[int, int] = defaultdict(int)
        self.calls: dict[int, int] = defaultdict(int)
        self.self_s: dict[int, float] = defaultdict(float)
        self.total_s: dict[int, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._cache_base: tuple[int, int] | None = None
        self._hooks = {
            "rewrite.find_redexes": self._on_find_redexes,
            "rewrite.normalize": self._on_normalize,
            "track.compose": self._on_compose,
            "critical.critical_branchings": self._on_branchings,
            "completion.knuth_bendix": self._on_knuth_bendix,
            "abelian.decompose_loop": self._on_decompose,
            "transport.comparison_loop": self._on_comparison_loop,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules at every binding
        in the package (its modules and the package namespace itself)."""
        modules = [sys.modules[self.package]] + [
            sys.modules[name]
            for name in sorted(sys.modules)
            if name.startswith(self.package + ".") and sys.modules[name] is not None
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                layer = getattr(obj, "__module__", "") or ""
                if layer.rpartition(".")[2] not in LAYERS or not layer.startswith(self.package + "."):
                    continue
                if isinstance(obj, type) or not (hasattr(obj, "__code__") or hasattr(obj, "cache_info")):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    name = f"{layer.rpartition('.')[2]}.{obj.__name__}"
                    wrapper = self._wrap(name, obj)
                    wrappers[id(obj)] = wrapper
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self._fids[name] = fid
        self.originals[name] = fn
        hook = self._hooks.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(fid)
            if hook is not None:
                tracer._run_hook(name, hook, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- spans --------------------------------------------------------------

    def _enter(self, fid: int) -> None:
        index = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        now = self.clock()
        self.start.append(now)
        self.end.append(now)
        self._stack.append([index, fid, now, 0.0])
        self._depth[fid] += 1

    def _exit(self, fid: int) -> None:
        now = self.clock()
        index, _, started, child = self._stack.pop()
        self.end[index] = now
        duration = now - started
        self.calls[fid] += 1
        self.self_s[fid] += duration - child
        self._depth[fid] -= 1
        if self._depth[fid] == 0:
            self.total_s[fid] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def begin_op(self) -> None:
        """Open the root span of one op and start recording."""
        self.active = True
        info = self._normal_path_cache()
        self._cache_base = info
        self._enter(0)

    def end_op(self) -> None:
        self._exit(0)
        info = self._normal_path_cache()
        if info is not None and self._cache_base is not None:
            self.counts["normal_path.hits"] += info[0] - self._cache_base[0]
            self.counts["normal_path.misses"] += info[1] - self._cache_base[1]
        self.active = False

    def _normal_path_cache(self) -> tuple[int, int] | None:
        fn = self.originals.get("rewrite.normal_path")
        if fn is None or not hasattr(fn, "cache_info"):
            return None
        info = fn.cache_info()
        return info.hits, info.misses

    # -- counters -------------------------------------------------------------

    def _run_hook(self, name: str, hook, result) -> None:
        # A result whose shape changed disables that function's counters,
        # which are then reported as absent.
        if name in self.broken:
            return
        try:
            hook(result)
        except (AttributeError, TypeError, IndexError, KeyError):
            self.broken.add(name)

    def _inside(self, name: str) -> bool:
        fid = self._fids.get(name)
        return fid is not None and self._depth[fid] > 0

    def _on_find_redexes(self, result) -> None:
        if self._inside("rewrite.normalize"):
            self.counts["find_redexes.redexes_in_normalize"] += len(result)

    def _on_normalize(self, result) -> None:
        self.counts["normalize.steps"] += len(result[1].steps)

    def _on_compose(self, result) -> None:
        self.counts["compose.steps_out"] += len(result.steps)

    def _on_branchings(self, result) -> None:
        self.counts["branchings_listed"] += len(result)

    def _on_knuth_bendix(self, result) -> None:
        for event in result[1]:
            if event.kind in ("add", "remove"):
                self.counts[f"rules_{event.kind}"] += 1

    def _on_decompose(self, result) -> None:
        self.counts["certificate_entries"] += len(result.entries)

    def _on_comparison_loop(self, result) -> None:
        self.counts["loop_steps"] += len(result.steps)

    # -- reporting ----------------------------------------------------------

    def metrics(self, overhead_s: float | None) -> tuple[dict, list[str]]:
        """Per-layer metrics by name, and the names reported as absent."""
        values: dict[str, float | None] = {}

        def fn_stat(name: str, table) -> float | None:
            return table[self._fids[name]] if name in self._fids else None

        def count(counter: str, *needs: str) -> float | None:
            ok = all(n in self._fids and n not in self.broken for n in needs)
            return self.counts[counter] if ok else None

        def ratio(num, den) -> float | None:
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        for layer in LAYERS:
            fids = [fid for name, fid in self._fids.items() if name.startswith(layer + ".")]
            values[f"{layer}.self_s"] = sum(self.self_s[fid] for fid in fids) if fids else None
        values["rewrite.find_redexes.self_s"] = fn_stat("rewrite.find_redexes", self.self_s)
        values["rewrite.find_redexes.calls"] = fn_stat("rewrite.find_redexes", self.calls)
        values["rewrite.normalize.steps"] = count("normalize.steps", "rewrite.normalize")
        values["rewrite.redexes_used_ratio"] = ratio(
            values["rewrite.normalize.steps"],
            count("find_redexes.redexes_in_normalize", "rewrite.find_redexes", "rewrite.normalize"),
        )
        values["rewrite.apply_step.calls"] = fn_stat("rewrite.apply_step", self.calls)
        cache_ok = self._normal_path_cache() is not None
        hits = self.counts["normal_path.hits"] if cache_ok else None
        misses = self.counts["normal_path.misses"] if cache_ok else None
        values["rewrite.normal_path.hit_ratio"] = ratio(hits, None if hits is None else hits + misses)
        values["track.compose.calls"] = fn_stat("track.compose", self.calls)
        values["track.compose.steps_out"] = count("compose.steps_out", "track.compose")
        values["critical.critical_branchings.calls"] = fn_stat("critical.critical_branchings", self.calls)
        values["critical.branchings_listed"] = count("branchings_listed", "critical.critical_branchings")
        values["completion.knuth_bendix.total_s"] = fn_stat("completion.knuth_bendix", self.total_s)
        values["completion.rules_added"] = count("rules_add", "completion.knuth_bendix")
        values["completion.rules_removed"] = count("rules_remove", "completion.knuth_bendix")
        values["completion.added_per_branching"] = ratio(
            values["completion.rules_added"], values["critical.branchings_listed"]
        )
        values["abelian.decompose_loop.self_s"] = fn_stat("abelian.decompose_loop", self.self_s)
        values["abelian.verify_certificate.total_s"] = fn_stat("abelian.verify_certificate", self.total_s)
        values["abelian.certificate_entries"] = count("certificate_entries", "abelian.decompose_loop")
        values["transport.functor_image.total_s"] = fn_stat("transport.functor_image", self.total_s)
        values["transport.comparison_path.total_s"] = fn_stat("transport.comparison_path", self.total_s)
        values["transport.loop_steps"] = count("loop_steps", "transport.comparison_loop")
        values["presentation.parse_presentation.calls"] = fn_stat("presentation.parse_presentation", self.calls)
        values["cli.main.total_s"] = fn_stat("cli.main", self.total_s)
        values["trace.overhead_s"] = overhead_s

        metrics, absent = {}, []
        for name, unit in PER_LAYER:
            value = values.get(name)
            if value is None:
                absent.append(name)
            else:
                metrics[name] = {"value": value, "unit": unit}
        return metrics, absent

    def bases(self) -> dict[str, int]:
        """The denominators of the ratio metrics, for the report."""
        return {
            "rewrite.redexes_used_ratio": self.counts["find_redexes.redexes_in_normalize"],
            "rewrite.normal_path.hit_ratio": self.counts["normal_path.hits"] + self.counts["normal_path.misses"],
            "completion.added_per_branching": self.counts["branchings_listed"],
        }

    def write_spans(self, path) -> int:
        """Write the spans: one JSON header line, then the four arrays."""
        header = {
            "names": self.names,
            "count": len(self.fid),
            "arrays": [
                {"field": field, "typecode": arr.typecode, "itemsize": arr.itemsize}
                for field, arr in self._arrays()
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in self._arrays():
                arr.tofile(fh)
        return len(self.fid)

    def _arrays(self):
        return (("fid", self.fid), ("parent", self.parent), ("start", self.start), ("end", self.end))


def read_spans(path) -> tuple[list[str], dict[str, array.array]]:
    """Read a file written by ``Tracer.write_spans``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {}
        for spec in header["arrays"]:
            arr = array.array(spec["typecode"])
            arr.fromfile(fh, header["count"])
            out[spec["field"]] = arr
    return header["names"], out
