"""Per-layer tracing of reflectopt from outside the program.

The tracer replaces public functions of each ``reflectopt`` module with
wrappers that record one span per call (name, start, end, parent span). A
function is replaced under every module attribute that refers to it, because
``from .x import y`` binds ``y`` separately in each importing module, and
replacing the defining module's global also catches calls inside that module.
Spans stay in memory and are written out at the end of the run.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("geom", "placement", "repair", "objectives", "assign", "mopso", "amcl",
           "harness", "files", "cli")

# (span name, attribute path inside the module named by the span prefix)
SPANS = (
    ("geom.visibility_mask", "visibility_mask"),
    ("geom.project_into_margin", "project_into_margin"),
    ("geom.boundary_distance", "boundary_distance"),
    ("geom.build_grid", "build_grid"),
    ("geom.Grid.nearest_element", "Grid.nearest_element"),
    ("placement.placement_masks", "placement_masks"),
    ("placement.check_constraints", "check_constraints"),
    ("repair.repair", "repair"),
    ("repair.random_feasible", "random_feasible"),
    ("repair.sample_in_margin", "sample_in_margin"),
    ("objectives.evaluate", "evaluate"),
    ("objectives.ambiguity", "ambiguity"),
    ("objectives.gdop_objective", "gdop_objective"),
    ("objectives.fingerprint_table", "fingerprint_table"),
    ("assign.align_leader", "align_leader"),
    ("assign.hungarian", "hungarian"),
    ("mopso.run", "run"),
    ("mopso.velocity_update", "velocity_update"),
    ("mopso.position_update", "position_update"),
    ("mopso.upmutate", "upmutate"),
    ("mopso.downmutate", "downmutate"),
    ("mopso.ParetoArchive.update", "ParetoArchive.update"),
    ("amcl.track", "track"),
    ("amcl.motion_update", "motion_update"),
    ("amcl.resample", "resample"),
    ("amcl.estimate", "estimate"),
    ("amcl.FingerprintModel", "FingerprintModel.__init__"),
    ("harness.run_experiment", "run_experiment"),
    ("harness.simulate_measurement", "simulate_measurement"),
    ("files.write_map_csv", "write_map_csv"),
    ("files.write_ambiguity_pgm", "write_ambiguity_pgm"),
    ("files.write_value_pgm", "write_value_pgm"),
    ("files.write_front", "write_front"),
    ("files.write_placement", "write_placement"),
    ("files.load_config", "load_config"),
    ("cli.main", "main"),
)


def _placement_rows(counters, args, result):
    counters["placement.placement_masks.rows"] += args[0].m


def _repair_outcome(counters, args, result):
    _, feasible, iterations = result
    counters["repair.repair.iterations"] += iterations
    counters["repair.repair.failed"] += not feasible


def _random_feasible_error(counters, exc):
    if isinstance(exc, RuntimeError):
        counters["repair.random_feasible.failed"] += 1


def _downmutate_reverted(counters, args, result):
    # downmutate hands back its input particle when it reverts or cannot act.
    counters["mopso.downmutate.reverted"] += result is args[0]


def _resample_skipped(counters, args, result):
    # resample hands back its input set when the effective sample size is high.
    counters["amcl.resample.skipped"] += result is args[0]


ON_RETURN = {
    "placement.placement_masks": _placement_rows,
    "repair.repair": _repair_outcome,
    "mopso.downmutate": _downmutate_reverted,
    "amcl.resample": _resample_skipped,
}
ON_ERROR = {"repair.random_feasible": _random_feasible_error}

# (name, unit, better) of every counter the hooks above fill in.
COUNTERS = (
    ("placement.placement_masks.rows", "count", "lower"),
    ("repair.repair.iterations", "count", "lower"),
    ("repair.repair.failed", "count", "lower"),
    ("repair.random_feasible.failed", "count", "lower"),
    ("mopso.downmutate.reverted", "count", "lower"),
    ("amcl.resample.skipped", "count", "higher"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for name, _ in SPANS:
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.total_s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
    specs += list(COUNTERS)
    specs.append(("repair.repair.success_ratio", "ratio", "higher"))
    specs.append(("tracing.overhead_s", "s", "lower"))
    return specs


class Tracer:
    """Span recorder; ``installed`` patches the wrappers in and restores the originals."""

    def __init__(self):
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {name: 0 for name, _, _ in COUNTERS}
        self._stack = [-1]

    def _wrap(self, name_id: int, name: str, fn):
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack)
        counters = self.counters
        on_return = ON_RETURN.get(name)
        on_error = ON_ERROR.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counters, exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counters, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, package):
        """Wrap every span target of the imported ``package`` (reflectopt)."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        patches = []
        try:
            for name_id, (name, attr_path) in enumerate(SPANS):
                owner = getattr(package, name.split(".", 1)[0])
                if "." in attr_path:
                    cls_name, method = attr_path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(name_id, name, original))
                    continue
                original = getattr(owner, attr_path)
                wrapper = self._wrap(name_id, name, original)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for obj, attr, original in reversed(patches):
                setattr(obj, attr, original)

    def _arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        return names, parent, duration

    def metrics(self) -> dict[str, float]:
        """calls / total_s / self_s per span name plus the counters.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        names, parent, duration = self._arrays()
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=len(duration))
        self_time = duration - child_time
        n = len(SPANS)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=duration, minlength=n)
        own = np.bincount(names, weights=self_time, minlength=n)
        out = {}
        for i, (name, _) in enumerate(SPANS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.total_s"] = float(total[i])
            out[f"{name}.self_s"] = float(own[i])
        out.update(self.counters)
        repairs = out["repair.repair.calls"]
        out["repair.repair.success_ratio"] = (
            (repairs - out["repair.repair.failed"]) / repairs if repairs else 0.0)
        return out

    def save(self, path):
        """Write every span (name id, parent index, start, end) plus the name table."""
        names, parent, _ = self._arrays()
        np.savez_compressed(path, names=np.array([n for n, _ in SPANS]), span_name=names,
                            parent=parent, start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))
