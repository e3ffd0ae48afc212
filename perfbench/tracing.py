"""Span tracer for the benchmark's traced run.

The tracer wraps public functions at the module attribute a caller looks
them up by (``partgen.cli.decode_parts``, ``partgen.prior.forward``, ...),
so the per-layer numbers need no edit to ``src/partgen``. Each call records
one span: name, caller, start, end, parent span and op id. Spans stay in
memory until the run ends. A boundary the code no longer has is recorded as
missing, and every metric that needs it is reported as missing, never as
zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path

NAME, CALLER, START, END, PARENT, OP, COUNTS = range(7)


def _weight_macs(net) -> int:
    dims = net.layer_dims
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


# Count hooks run after the span closes: (args, result, seconds) -> counts.
def _count_train(args, result, seconds):
    config = args[0]
    return {"steps": config.steps, config.objective: config.steps, f"s.{config.objective}": seconds}


def _count_forward(args, result, seconds):
    net, x = args[0], args[1]
    rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    return {"flops": 2 * rows * _weight_macs(net)}


def _count_backward(args, result, seconds):
    net, tape = args[0], args[1]
    rows = tape.activations[0].shape[0]
    # weight gradients for every layer plus the input gradient of every layer
    return {"flops": 4 * rows * _weight_macs(net)}


def _count_sampler(args, result, seconds):
    return {"samples": len(args[1])}


def _count_grade_many(args, result, seconds):
    return {"verdicts": sum(len(questions) for _, questions in args[1])}


def _count_path_arg(index):
    return lambda args, result, seconds: {"bytes": os.path.getsize(args[index])}


# (module, attribute, span name, caller, kind, count hook). kind "gen" marks
# a function returning a lazy generator: its spans cover each step of the
# iteration, wherever the iteration runs.
BOUNDARIES = [
    ("partgen.cli", "WorldSpec", "world.WorldSpec", "cli", "call", None),
    ("partgen.cli", "generate_corpus", "taxonomy.generate_corpus", "cli", "gen", None),
    ("partgen.cli", "write_corpus", "taxonomy.write_corpus", "cli", "call", _count_path_arg(1)),
    ("partgen.cli", "read_corpus", "taxonomy.read_corpus", "cli", "call", None),
    ("partgen.cli", "make_dataset", "world.make_dataset", "cli", "call", None),
    ("partgen.cli", "save_dataset", "world.save_dataset", "cli", "call", _count_path_arg(1)),
    ("partgen.cli", "train", "prior.train", "cli", "call", _count_train),
    ("partgen.cli", "save_checkpoint", "nn.save_checkpoint", "cli", "call", _count_path_arg(1)),
    ("partgen.cli", "load_checkpoint", "nn.load_checkpoint", "cli", "call", None),
    ("partgen.cli", "run_eval_stage", "cli.run_eval_stage", "cli", "call", None),
    ("partgen.cli", "sample_flow_batch", "prior.sample_flow_batch", "cli", "call", _count_sampler),
    ("partgen.cli", "sample_diffusion_batch", "prior.sample_diffusion_batch", "cli", "call", _count_sampler),
    ("partgen.cli", "decode_parts", "world.decode_parts", "cli", "call", None),
    ("partgen.cli", "compositional_accuracy", "metrics.compositional_accuracy", "cli", "call", None),
    ("partgen.cli", "compositional_accuracy_by_k", "metrics.compositional_accuracy_by_k", "cli", "call", None),
    ("partgen.cli", "fid", "metrics.fid", "cli", "call", None),
    ("partgen.cli", "kid", "metrics.kid", "cli", "call", None),
    ("partgen.cli", "parteval_grade_many", "parteval.grade_many", "cli", "call", _count_grade_many),
    ("partgen.cli", "write_report", "report.write_report", "cli", "call", None),
    ("partgen.cli", "build_manifest", "manifest.build_manifest", "cli", "call", None),
    ("partgen.cli", "write_manifest", "manifest.write_manifest", "cli", "call", None),
    ("partgen.cli", "verify_artifacts", "manifest.verify_artifacts", "cli", "call", None),
    ("partgen.metrics", "decode_parts", "world.decode_parts", "metrics", "call", None),
    ("partgen.parteval", "decode_parts", "world.decode_parts", "parteval", "call", None),
    ("partgen.prior", "forward", "nn.forward", "prior", "call", _count_forward),
    ("partgen.prior", "backward", "nn.backward", "prior", "call", _count_backward),
    ("partgen.prior", "adam_step", "nn.adam_step", "prior", "call", None),
    ("partgen.manifest", "sha256_file", "manifest.sha256_file", "manifest", "call", _count_path_arg(0)),
    # functions the train workload calls itself, through their own modules
    ("partgen.taxonomy", "generate_corpus", "taxonomy.generate_corpus", "bench", "gen", None),
    ("partgen.world", "make_dataset", "world.make_dataset", "bench", "call", None),
    ("partgen.prior", "train", "prior.train", "bench", "call", _count_train),
    ("partgen.nn", "save_checkpoint", "nn.save_checkpoint", "bench", "call", _count_path_arg(1)),
    ("partgen.nn", "load_checkpoint", "nn.load_checkpoint", "bench", "call", None),
]


class Tracer:
    """In-memory spans over the wrapped boundaries of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = "setup"
        self.installed: set[tuple[str, str]] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str, caller: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, caller, 0.0, 0.0, parent, self.op, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def _wrap_call(self, fn, name, caller, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, caller)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                span = self.spans[idx]
                span[COUNTS] = count(args, result, span[END] - span[START])
            return result
        return traced

    def _iterate(self, iterator, name, caller):
        while True:
            idx = self._open(name, caller)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.spans[idx][COUNTS] = {"records": 1}
            yield item

    def _wrap_gen(self, fn, name, caller):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(iter(fn(*args, **kwargs)), name, caller)
        return traced

    def install(self) -> None:
        for module_name, attr, name, caller, kind, count in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap_gen(fn, name, caller) if kind == "gen" else self._wrap_call(fn, name, caller, count)
            setattr(module, attr, wrapped)
            self.installed.add((name, caller))

    def has(self, name: str, caller: str | None = None) -> bool:
        return any(n == name and (caller is None or c == caller) for n, c in self.installed)

    def write(self, path: Path) -> None:
        keys = ("name", "caller", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class OpSpans:
    """Totals, self times, call counts and summed counters of one op."""

    def __init__(self, spans: list[list], indices: list[int]) -> None:
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.n_calls: dict[tuple[str, str], int] = {}
        self.counters: dict[tuple[str, str], float] = {}
        self.parent_calls: dict[tuple[str, str], int] = {}
        self.first_start: dict[tuple[str, str], float] = {}
        self.last_end: dict[tuple[str, str], float] = {}
        child_time: dict[int, float] = {}
        for i in indices:
            span = spans[i]
            if span[PARENT] >= 0:
                child_time[span[PARENT]] = child_time.get(span[PARENT], 0.0) + span[END] - span[START]
        for i in indices:
            name, caller, start, end, parent = spans[i][:5]
            dur = end - start
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time.get(i, 0.0)
            key = (name, caller)
            self.n_calls[key] = self.n_calls.get(key, 0) + 1
            self.first_start.setdefault(key, start)
            self.last_end[key] = end
            parent_name = spans[parent][NAME] if parent >= 0 else ""
            self.parent_calls[(name, parent_name)] = self.parent_calls.get((name, parent_name), 0) + 1
            for counter, value in (spans[i][COUNTS] or {}).items():
                self.counters[(name, counter)] = self.counters.get((name, counter), 0) + value
                under = (f"{name}<{parent_name}", counter)
                self.counters[under] = self.counters.get(under, 0) + value

    def s(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def self_s(self, name: str) -> float:
        return self.self_time.get(name, 0.0)

    def calls(self, name: str, caller: str | None = None) -> int:
        return sum(n for (nm, c), n in self.n_calls.items() if nm == name and (caller is None or c == caller))

    def calls_under(self, name: str, parent: str) -> int:
        return self.parent_calls.get((name, parent), 0)

    def count(self, name: str, counter: str, parent: str | None = None) -> float:
        key = f"{name}<{parent}" if parent is not None else name
        return self.counters.get((key, counter), 0)

    def between(self, start_key, end_key, ends: bool = False) -> float:
        """Time from one boundary's first start (last end, if ``ends``) to another's."""
        marks = self.last_end if ends else self.first_start
        if start_key in marks and end_key in marks:
            return marks[end_key] - marks[start_key]
        return 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _seconds(name):
    return ("s", [(name, None)], lambda a: a.s(name))


def _calls(name, caller=None):
    return ("count", [(name, caller)], lambda a: a.calls(name, caller))


def _bytes(name):
    return ("bytes", [(name, None)], lambda a: a.count(name, "bytes"))


def _self(name, *children):
    # self time: the span minus the time its child spans cover
    return ("s", [(name, None)] + [(child, None) for child in children], lambda a: a.self_s(name))


def _between(start, end, ends=False):
    return ("s", [start, end], lambda a: a.between(start, end, ends))


def _train_steps(a: OpSpans) -> float:
    return a.count("prior.train", "steps")


def _decode_cache_hit_ratio(a: OpSpans) -> float:
    # verdicts answered without a decode of their own, over all verdicts
    verdicts = a.count("parteval.grade_many", "verdicts")
    return 1.0 - a.calls("world.decode_parts", "parteval") / verdicts if verdicts else 0.0


def _ms_per_step(a: OpSpans, objective: str) -> float:
    return 1000.0 * _ratio(a.count("prior.train", f"s.{objective}"), a.count("prior.train", objective))


# name -> (unit, required (span, caller) boundaries, metric function). Times are
# seconds per op; counts are per op. A boundary a workload never crosses
# reads 0; a boundary the code no longer has makes the metric missing.
SAMPLERS = ("prior.sample_flow_batch", "prior.sample_diffusion_batch")
PER_LAYER = {
    "taxonomy.generate_corpus.s": _seconds("taxonomy.generate_corpus"),
    "taxonomy.records_per_s": (
        "1/s",
        [("taxonomy.generate_corpus", None)],
        lambda a: _ratio(a.count("taxonomy.generate_corpus", "records"), a.s("taxonomy.generate_corpus")),
    ),
    "taxonomy.write_corpus.self_s": _self("taxonomy.write_corpus", "taxonomy.generate_corpus"),
    "taxonomy.read_corpus.s": _seconds("taxonomy.read_corpus"),
    "taxonomy.corpus_bytes": _bytes("taxonomy.write_corpus"),
    "world.WorldSpec.s": _seconds("world.WorldSpec"),
    "world.make_dataset.s": _seconds("world.make_dataset"),
    "world.save_dataset.s": _seconds("world.save_dataset"),
    "world.dataset_bytes": _bytes("world.save_dataset"),
    "world.decode_parts.calls": _calls("world.decode_parts"),
    "world.decode_parts.calls.cli": _calls("world.decode_parts", "cli"),
    "world.decode_parts.calls.metrics": _calls("world.decode_parts", "metrics"),
    "world.decode_parts.calls.parteval": _calls("world.decode_parts", "parteval"),
    "world.decode_parts.s": _seconds("world.decode_parts"),
    "world.decode_parts.ms_per_call": (
        "ms",
        [("world.decode_parts", None)],
        lambda a: 1000.0 * _ratio(a.s("world.decode_parts"), a.calls("world.decode_parts")),
    ),
    "world.decodes_per_sample": (
        "count",
        [("world.decode_parts", None), (SAMPLERS[0], None)],
        lambda a: _ratio(a.calls("world.decode_parts"), sum(a.count(s, "samples") for s in SAMPLERS)),
    ),
    "nn.forward.calls": _calls("nn.forward"),
    "nn.forward.calls_per_train_step": (
        "count",
        [("nn.forward", None), ("prior.train", None)],
        lambda a: _ratio(a.calls_under("nn.forward", "prior.train"), _train_steps(a)),
    ),
    "nn.forward.s": _seconds("nn.forward"),
    "nn.backward.s": _seconds("nn.backward"),
    "nn.adam_step.s": _seconds("nn.adam_step"),
    "nn.step_flops": (
        "count",
        [("nn.forward", None), ("nn.backward", None), ("prior.train", None)],
        lambda a: _ratio(
            a.count("nn.forward", "flops", "prior.train") + a.count("nn.backward", "flops", "prior.train"),
            _train_steps(a),
        ),
    ),
    "nn.achieved_gflops": (
        "GFLOP/s",
        [("nn.forward", None), ("nn.backward", None)],
        lambda a: 1e-9 * _ratio(
            a.count("nn.forward", "flops") + a.count("nn.backward", "flops"), a.s("nn.forward") + a.s("nn.backward")
        ),
    ),
    "nn.save_checkpoint.s": _seconds("nn.save_checkpoint"),
    "nn.load_checkpoint.s": _seconds("nn.load_checkpoint"),
    "nn.checkpoint_bytes": _bytes("nn.save_checkpoint"),
    "prior.train.s": _seconds("prior.train"),
    "prior.train.self_s": _self("prior.train", "nn.forward", "nn.backward", "nn.adam_step"),
    "prior.ms_per_step.flow": ("ms", [("prior.train", None)], lambda a: _ms_per_step(a, "rectified_flow")),
    "prior.ms_per_step.diffusion": ("ms", [("prior.train", None)], lambda a: _ms_per_step(a, "diffusion_prior")),
    "prior.sample_flow_batch.s": _seconds(SAMPLERS[0]),
    "prior.sampler_forward_calls": (
        "count",
        [("nn.forward", None), (SAMPLERS[0], None)],
        lambda a: sum(a.calls_under("nn.forward", s) for s in SAMPLERS),
    ),
    "metrics.compositional_accuracy.self_s": _self("metrics.compositional_accuracy", "world.decode_parts"),
    "metrics.compositional_accuracy_by_k.self_s": _self("metrics.compositional_accuracy_by_k", "world.decode_parts"),
    "metrics.fid.s": _seconds("metrics.fid"),
    "metrics.kid.s": _seconds("metrics.kid"),
    "parteval.grade_many.s": _seconds("parteval.grade_many"),
    "parteval.verdicts": (
        "count", [("parteval.grade_many", None)], lambda a: a.count("parteval.grade_many", "verdicts"),
    ),
    "parteval.decode_cache_hit_ratio": (
        "fraction", [("parteval.grade_many", None), ("world.decode_parts", "parteval")], _decode_cache_hit_ratio,
    ),
    "report.write_report.s": _seconds("report.write_report"),
    "manifest.build_manifest.s": _seconds("manifest.build_manifest"),
    "manifest.bytes_hashed": _bytes("manifest.sha256_file"),
    "manifest.verify_artifacts.s": _seconds("manifest.verify_artifacts"),
    # ROADMAP's by-stage split of a pipeline run; each stage ends where the
    # next stage's first boundary starts.
    "cli.stage.corpus.s": _between(("taxonomy.generate_corpus", "cli"), ("taxonomy.read_corpus", "cli")),
    "cli.stage.dataset.s": _between(("taxonomy.read_corpus", "cli"), ("prior.train", "cli")),
    "cli.stage.train.s": _between(("prior.train", "cli"), ("cli.run_eval_stage", "cli")),
    "cli.stage.eval.s": _seconds("cli.run_eval_stage"),
    "cli.stage.manifest.s": _between(("cli.run_eval_stage", "cli"), ("manifest.write_manifest", "cli"), ends=True),
    "cli.run_eval_stage.self_s": ("s", [("cli.run_eval_stage", "cli")], lambda a: a.self_s("cli.run_eval_stage")),
}


def per_layer_metrics(tracer: Tracer, ops: list[str], op_walls: list[float]) -> tuple[dict[str, dict], list[str]]:
    """Median over ops of every per-layer metric, plus the missing names."""
    by_op: dict[str, list[int]] = {op: [] for op in ops}
    for i, span in enumerate(tracer.spans):
        if span[OP] in by_op:
            by_op[span[OP]].append(i)
    aggregates = [OpSpans(tracer.spans, by_op[op]) for op in ops]
    values: dict[str, dict] = {}
    missing: list[str] = []
    for metric, (unit, needs, fn) in PER_LAYER.items():
        if not all(tracer.has(name, caller) for name, caller in needs):
            missing.append(metric)
            continue
        values[metric] = {"value": statistics.median(fn(a) for a in aggregates), "unit": unit}
    # traced minus untraced wall_s is the tracing overhead
    values["trace.wall_s"] = {"value": statistics.median(op_walls), "unit": "s"}
    values["trace.spans_per_op"] = {"value": statistics.median(len(by_op[op]) for op in ops), "unit": "count"}
    return values, missing
