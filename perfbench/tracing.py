"""In-memory spans around the calls into each ranklens layer.

The package is traced from outside: while a Tracer is installed, every
public function of a layer module is replaced, in every ranklens
namespace that holds a reference to it, by a wrapper that records one
span per call (name, start, end, parent span, dataset id). Nothing inside
``src/`` changes, and uninstalling restores the original functions, so an
untraced run executes exactly the package code.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("documents", "model", "structure", "graphs", "rationalize", "hadamard", "oracle")

# Helpers called once per element inside a loop (a subgame pair, a sort key,
# a profile). A span each would cost more than the work they do; the span of
# the function that loops over them covers their time.
PER_ELEMENT = frozenset({"subgames_cross", "split_vertex_key", "is_strict_equilibrium"})

# Classes whose construction is a layer operation of its own.
CONSTRUCTORS = {"model": ("BimatrixGame",)}

# Per-layer timing metric -> the spans it sums. A span nested inside another
# span of the same metric is not counted twice.
TIMINGS = {
    "documents.dataset_parse_s": ("documents.dataset_from_text", "documents.dataset_from_document"),
    "documents.game_emit_s": ("documents.game_to_text", "documents.game_to_document"),
    "documents.game_parse_s": ("documents.game_from_text", "documents.game_from_document"),
    "model.validate_s": ("model.validate_dataset",),
    "model.game_build_s": ("model.BimatrixGame",),
    "model.rationalizes_s": ("model.rationalizes",),
    "model.game_rank_s": ("model.game_rank", "model.rational_matrix_rank"),
    "structure.crossing_set_s": ("structure.crossing_set",),
    "structure.uniqueness_s": ("structure.satisfies_uniqueness",),
    "structure.analyze_s": ("structure.analyze",),
    "structure.laminar_forest_s": ("structure.laminar_forest",),
    "structure.dedupe_nested_s": ("structure.dedupe_nested",),
    "graphs.build_s": ("graphs.build_strong_laminar_graph", "graphs.build_split_graph"),
    "graphs.is_acyclic_s": ("graphs.is_acyclic",),
    "graphs.levels_s": ("graphs.topological_levels",),
    "graphs.assign_s": ("graphs.assign_payoffs_topological", "graphs.assign_payoffs_split"),
    "rationalize.auto_s": ("rationalize.rationalize_auto",),
    "rationalize.decide_s": ("rationalize.is_rationalizable",),
    "hadamard.generate_s": ("hadamard.sylvester_hadamard", "hadamard.two_regular_dataset",
                            "hadamard.uniqueness_variant"),
    "hadamard.block_difference_s": ("hadamard.block_difference_certificate",),
    "oracle.min_rank_s": ("oracle.brute_force_min_rank",),
    "oracle.zero_sum_feasible_s": ("oracle.zero_sum_feasible",),
}

ROUTES = ("rank_one", "zero_sum", "bounded_rank", "general")
ORACLE_RESULTS = ("none", "0", "1", "2")

COUNTS = (
    "documents.dataset_bytes", "documents.game_bytes", "model.cells", "model.rank",
    "structure.subgames", "structure.pairs", "structure.crossing_subgames",
    "graphs.vertices", "graphs.edges", "graphs.levels",
    *(f"rationalize.route.{route}" for route in ROUTES), "rationalize.negative",
    "oracle.box_rows", *(f"oracle.result.{result}" for result in ORACLE_RESULTS),
)


def _observe(counts: Counter, name: str, args: tuple, kwargs: dict, result, parent: int) -> None:
    """Work counts taken at the layer boundary from a call's arguments and result."""
    if name == "documents.dataset_from_text":
        counts["documents.dataset_bytes"] += len(args[0])
    elif name == "documents.game_to_text":
        counts["documents.game_bytes"] += len(result)
    elif name == "model.BimatrixGame":
        counts["model.cells"] += 2 * args[0].n * args[0].n
    elif name == "model.game_rank":
        counts["model.rank"] += result
    elif name == "structure.analyze" and parent < 0:
        # Once per dataset: the benchmark's own call, not the ones routes make.
        subgames = len(args[0].subgames())
        counts["structure.subgames"] += subgames
        counts["structure.pairs"] += subgames * subgames
        counts["structure.crossing_subgames"] += len(result.crossing_subgames)
    elif name in ("graphs.build_strong_laminar_graph", "graphs.build_split_graph"):
        counts["graphs.vertices"] += result.n * result.n + len(getattr(result, "split", ()))
        counts["graphs.edges"] += len(result.edges)
    elif name == "graphs.topological_levels":
        counts["graphs.levels"] += max(result.values(), default=0)
    elif name == "rationalize.rationalize_auto":
        counts[f"rationalize.route.{result.method}"] += 1
    elif name == "oracle.brute_force_min_rank":
        dataset = args[0]
        config = args[1] if len(args) > 1 else kwargs.get("config")
        max_abs = config.max_abs_payoff if config is not None else 3  # SearchConfig's default
        counts["oracle.box_rows"] += (2 * max_abs + 1) ** (dataset.n * dataset.n)
        counts[f"oracle.result.{'none' if result is None else result}"] += 1


class Tracer:
    """Spans and counts of one benchmark run, kept in memory until written out.

    ``expected`` lists exception types that are results, not failures (the
    package's ``NotRationalizable`` is always one); any other exception
    leaving a span counts once, against the layer where it was raised.
    """

    def __init__(self, package, expected: tuple[type[BaseException], ...] = ()):
        self.package = package
        self.negative = package.NotRationalizable
        self.expected = (self.negative, *expected)
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.dataset = "setup"
        self.active = True
        self._patches: list | None = None
        self._installed = False
        self._last_error: BaseException | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place. The patch list is built on the first
        call; later calls only set attributes, so installing per dataset is
        cheap."""
        if self._installed:
            return
        if self._patches is None:
            self._patches = self._plan()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)
        self._installed = False

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every reference to a
        traced function in a ranklens namespace, and for each constructor hook."""
        prefix = self.package.__name__ + "."
        namespaces = [self.package] + [
            module for name, module in sorted(sys.modules.items())
            if name.startswith(prefix) and module is not None
        ]
        patches = []
        for layer in LAYERS:
            module = sys.modules.get(prefix + layer)
            if module is None:
                continue
            for attr, fn in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or attr in PER_ELEMENT or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    for key, value in vars(namespace).items():
                        if value is fn:
                            patches.append((namespace, key, fn, wrapper))
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                hook = getattr(cls, "__post_init__", None)
                if hook is not None:
                    patches.append((cls, "__post_init__", hook, self._wrap(f"{layer}.{cls_name}", hook)))
        return patches

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, self.expected):
                    if name == "rationalize.rationalize_auto" and isinstance(exc, self.negative):
                        counts["rationalize.negative"] += 1
                elif exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                if stack and stack[-1] == sid:
                    stack.pop()
                spans[sid] = (sid, parent, name, start, end, self.dataset)
            _observe(counts, name, args, kwargs, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results ------------------------------------------------------------

    def begin_dataset(self, dataset_id: str) -> None:
        # A timeout can interrupt a wrapper between push and pop.
        self.stack.clear()
        self.dataset = dataset_id

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics: timings and counts per traced pass over the
        corpus, except hadamard.generate_s, which covers one corpus
        generation during set-up."""
        spans = [s for s in self.spans if s is not None]
        by_id = {s[0]: s for s in spans}
        metrics_of: dict[str, list[str]] = {}
        for metric, names in TIMINGS.items():
            for name in names:
                metrics_of.setdefault(name, []).append(metric)
        totals: Counter = Counter()
        for sid, parent, name, start, end, dataset in spans:
            for metric in metrics_of.get(name, ()):
                if (dataset == "setup") != (metric == "hadamard.generate_s"):
                    continue
                wanted = TIMINGS[metric]
                ancestor = parent
                while ancestor >= 0 and by_id[ancestor][2] not in wanted:
                    ancestor = by_id[ancestor][1]
                if ancestor < 0:
                    totals[metric] += end - start
        out: dict[str, float] = {}
        for metric in TIMINGS:
            scale = 1 if metric == "hadamard.generate_s" else passes
            out[metric] = totals[metric] / 1e9 / scale
        child_time: Counter = Counter()
        for sid, parent, name, start, end, dataset in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        measured = [s for s in spans if s[5] != "setup"]
        for sid, parent, name, start, end, dataset in measured:
            self_time[name.split(".", 1)[0]] += end - start - child_time[sid]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer] / 1e9 / passes
            out[f"{layer}.errors"] = self.errors[layer]
        for name in COUNTS:
            out[name] = self.counts[name] / passes
        out["trace.spans"] = len(measured) / passes
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                if span is None:
                    continue
                sid, parent, name, start, end, dataset = span
                handle.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start_ns": start,
                     "end_ns": end, "dataset": dataset},
                    separators=(",", ":"),
                ) + "\n")
