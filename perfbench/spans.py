"""Timing shims and span analysis for the traced benchmark run.

The shims wrap cadlab's public functions at the name each caller looks up:
``cadlab.training.grad`` (the first-order backward pass of a training step)
and ``cadlab.losses.grad`` (the differentiable backward pass inside the
invariance penalty) are patched separately, so the two show up as separate
spans. Nothing under ``src/`` is modified; ``Shims.remove`` restores every
original name.

A span is ``[id, parent, name, start, end, pid, run, attrs]``. Spans stay in
memory. Fork-pool workers inherit the shims and the tracer; after every
``run_single`` job a worker writes its own spans and counts to a spool file,
which the parent collects once the pool has returned.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("data", "model", "losses", "autodiff", "training", "evaluation", "cli")
ARMS = ("full", "no_irm", "no_ocd", "neither")

# metric name -> span name; every timing metric is reported as p50, p90 and n
TIMINGS = {
    "data.generate_s": "data.generate",
    "data.write_s": "data.write",
    "data.read_s": "data.read",
    "data.featurize_matrix_s": "data.featurize_matrix",
    "data.partition_s": "data.partition",
    "model.forward_s": "model.forward",
    "model.snapshot_s": "model.snapshot",
    "model.predict_matrix_s": "model.predict_matrix",
    "model.checkpoint_save_s": "model.checkpoint_save",
    "model.checkpoint_load_s": "model.checkpoint_load",
    "losses.l_p_s": "losses.l_p",
    "losses.l_irm_s": "losses.l_irm",
    "losses.l_ocd_s": "losses.l_ocd",
    "losses.combined_s": "losses.combined",
    "autodiff.toposort_s": "autodiff.toposort",   # first-order tapes only
    "autodiff.backward_s": "autodiff.backward",   # first-order tapes only
    "autodiff.grad2_s": "autodiff.grad2",
    "training.step_ms": None,                     # combined_loss start -> adam_step end
    "training.adam_s": "training.adam",
    "training.make_batches_s": "training.make_batches",
    "training.train_accuracy_s": "training.train_accuracy",
    "evaluation.run_single_s": "evaluation.run_single",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "evaluation.probe_s": "evaluation.probe",
    "cli.generate_s": "cli.generate",
    "cli.eval_s": "cli.eval",
    "cli.probe_s": "cli.probe",
}

# per-operation values (counts are exact; pool figures are medians over operations)
PER_OP = {
    "data.jsonl_bytes": "bytes",
    "data.featurize_rows": "count",
    "data.featurize_sparse_calls": "count",
    "losses.ocd_pairs_used": "count",
    "losses.ocd_pairs_attempted": "count",
    "losses.ocd_used_ratio": "ratio",
    "autodiff.grad2_calls": "count",
    "training.steps": "count",
    "training.examples": "count",
    "evaluation.jobs": "count",
    "evaluation.pool_setup_s": "s",
    "evaluation.pool_idle_share": "ratio",
    "evaluation.tail_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TIMINGS:
        unit = "ms" if name.endswith("_ms") else "s"
        units[f"{name}.p50"] = unit
        units[f"{name}.p90"] = unit
        units[f"{name}.n"] = "count"
    units.update(PER_OP)
    for arm in ARMS:
        units[f"autodiff.nodes_per_step.{arm}"] = "nodes"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["cli.nonzero_exits"] = "count"
    units["trace.overhead_share"] = "ratio"
    units["trace.spans_per_op"] = "count"
    return units


def arm_of(config) -> str:
    if config.alpha > 0.0:
        return "full" if config.beta > 0.0 else "no_ocd"
    return "no_irm" if config.beta > 0.0 else "neither"


class Tracer:
    """In-memory span and counter store, shared with forked workers."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[str] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.counts_pid = self.root_pid
        self.run = "setup"
        self._next_id = 0
        self._flushes = 0

    def open(self, name: str) -> list:
        pid = os.getpid()
        self._next_id += 1
        span = [f"{pid}-{self._next_id}", self.stack[-1] if self.stack else None,
                name, 0.0, 0.0, pid, self.run, None]
        self.spans.append(span)
        self.stack.append(span[0])
        span[3] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str) -> None:
        pid = os.getpid()
        if pid != self.counts_pid:      # first count in a forked worker
            self.counts, self.counts_pid = {}, pid
        per_run = self.counts.setdefault(self.run, {})
        per_run[name] = per_run.get(name, 0) + 1

    def flush_worker(self) -> None:
        """In a forked worker: move this process's spans and counts to the spool."""
        pid = os.getpid()
        mine = [s for s in self.spans if s[5] == pid]
        counts = self.counts if self.counts_pid == pid else {}
        self._flushes += 1
        path = os.path.join(self.spool_dir, f"{pid}-{self._flushes}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": mine, "counts": counts}, fh)
        self.spans = []
        self.counts, self.counts_pid = {}, pid

    def collect(self) -> None:
        """In the parent: merge and delete every spool file written by workers."""
        for fname in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, fname)
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            os.remove(path)
            self.spans.extend(payload["spans"])
            for run, per_run in payload["counts"].items():
                mine = self.counts.setdefault(run, {})
                for name, n in per_run.items():
                    mine[name] = mine.get(name, 0) + n


class Shims:
    """Installs and removes the timing shims around cadlab's public functions."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr: str, name: str, attrs=None, after=None) -> None:
        orig = getattr(owner, attr)
        tracer = self.tracer

        def shim(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span[7] = attrs(args, kwargs, out)
            if after is not None:
                after()
            return out

        self._replace(owner, attr, shim)

    def _count(self, owner, attr: str, name: str) -> None:
        orig = getattr(owner, attr)
        tracer = self.tracer

        def shim(*args, **kwargs):
            tracer.count(name)
            return orig(*args, **kwargs)

        self._replace(owner, attr, shim)

    def install(self) -> None:
        from cadlab import autodiff, cli, data, evaluation, losses, model, training

        tracer = self.tracer
        w = self._wrap

        # data
        w(data, "generate_cad", "data.generate")
        w(cli, "generate_cad", "data.generate")
        w(cli, "write_dataset", "data.write", attrs=lambda a, k, out: {"bytes": sum(
            os.path.getsize(out[s]) for s in ("train", "ood", "ood_stress"))})
        w(data, "read_dataset", "data.read")
        w(cli, "read_dataset", "data.read")
        w(cli, "load_jsonl", "data.read")
        rows = lambda a, k, out: {"rows": len(a[0])}
        w(training, "featurize_matrix", "data.featurize_matrix", attrs=rows)
        w(evaluation, "featurize_matrix", "data.featurize_matrix", attrs=rows)
        w(training, "partition_environments", "data.partition")
        self._count(losses, "featurize_sparse", "data.featurize_sparse_calls")

        # model
        w(losses, "forward_examples", "model.forward")
        w(model.ModelParams, "snapshot", "model.snapshot")
        w(model.Snapshot, "predict_matrix", "model.predict_matrix")
        w(cli, "save_checkpoint", "model.checkpoint_save")
        w(cli, "load_checkpoint", "model.checkpoint_load")

        # losses
        w(training, "combined_loss", "losses.combined",
          attrs=lambda a, k, out: {"examples": len(a[0])})
        w(losses, "prediction_loss", "losses.l_p")
        w(losses, "irm_penalty", "losses.l_irm")
        w(losses, "ocd_loss", "losses.l_ocd",
          attrs=lambda a, k, out: {"used": out[1], "attempted": len(a[0])})

        # autodiff
        w(training, "grad", "autodiff.grad")
        w(losses, "grad", "autodiff.grad2")
        base_tape = autodiff.GradientTape

        class TracedTape(base_tape):
            def __init__(self, output):
                span = tracer.open("autodiff.toposort")
                try:
                    super().__init__(output)
                finally:
                    tracer.close(span)
                span[7] = {"nodes": len(self.nodes)}

            def gradients(self, wrt, differentiable=False):
                span = tracer.open("autodiff.backward")
                try:
                    return super().gradients(wrt, differentiable)
                finally:
                    tracer.close(span)

        self._replace(autodiff, "GradientTape", TracedTape)

        # training
        arm = lambda a, k, out: {"arm": arm_of(a[0]), "seed": a[0].seed}
        w(training, "train", "training.train", attrs=arm)
        w(evaluation, "train", "training.train", attrs=arm)
        w(cli, "train", "training.train", attrs=arm)
        w(training, "adam_step", "training.adam")
        w(training, "make_batches", "training.make_batches")
        w(training, "train_accuracy", "training.train_accuracy")

        # evaluation
        def flush_if_worker():
            if os.getpid() != tracer.root_pid:
                tracer.flush_worker()

        w(evaluation, "run_single", "evaluation.run_single", after=flush_if_worker)
        w(evaluation, "evaluate", "evaluation.evaluate")
        w(cli, "evaluate", "evaluation.evaluate")
        w(evaluation, "myopia_probe", "evaluation.probe")
        w(cli, "myopia_probe", "evaluation.probe")
        w(evaluation, "run_ablation", "evaluation.run_ablation",
          attrs=lambda a, k, out: {"workers": k.get("workers", a[3] if len(a) > 3 else 1)})

        # cli: build_parser looks the command functions up on every main() call
        w(cli, "cmd_generate", "cli.generate")
        w(cli, "cmd_train", "cli.train")
        w(cli, "cmd_eval", "cli.eval")
        w(cli, "cmd_probe", "cli.probe")

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# analysis

def _quantiles(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Analysis:
    """Per-layer metrics from the spans of a traced run.

    Timing distributions use every traced span, the traced set-up included;
    self times, counts and pool figures are per traced operation.
    """

    def __init__(self, tracer: Tracer, op_runs: list[str]):
        self.spans = tracer.spans
        self.counts = tracer.counts
        self.op_runs = op_runs
        self.by_id = {s[0]: s for s in self.spans}
        self.children: dict[str, list[list]] = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                self.children[s[1]].append(s)
        for kids in self.children.values():
            kids.sort(key=lambda s: s[3])

    def _named(self, name: str, runs=None) -> list[list]:
        return [s for s in self.spans if s[2] == name and (runs is None or s[6] in runs)]

    def _parent_name(self, s: list) -> str | None:
        parent = self.by_id.get(s[1])
        return parent[2] if parent is not None else None

    def _first_order(self, name: str) -> list[list]:
        """Tape spans under the training step's grad, not under IRM's grad."""
        return [s for s in self._named(name) if self._parent_name(s) == "autodiff.grad"]

    def _self_time(self, s: list) -> float:
        """Duration minus the part of it that child spans cover."""
        t0, t1 = s[3], s[4]
        covered = _union_length([(max(c[3], t0), min(c[4], t1))
                                 for c in self.children.get(s[0], ()) if c[4] > t0 and c[3] < t1])
        return (t1 - t0) - covered

    def steps(self, runs=None) -> list[dict]:
        """One record per training step: arm, build/toposort/backward/Adam time, nodes."""
        out = []
        for train_span in self._named("training.train", runs):
            attrs = train_span[7] or {}
            kids = self.children.get(train_span[0], [])
            combined = [c for c in kids if c[2] == "losses.combined"]
            grads = [c for c in kids if c[2] == "autodiff.grad"]
            adams = [c for c in kids if c[2] == "training.adam"]
            for comb, g, adam in zip(combined, grads, adams):
                tape = [c for c in self.children.get(g[0], []) if c[2] == "autodiff.toposort"]
                back = [c for c in self.children.get(g[0], []) if c[2] == "autodiff.backward"]
                out.append({
                    "arm": attrs.get("arm"),
                    "seed": attrs.get("seed"),
                    "run": train_span[6],
                    "step_s": adam[4] - comb[3],
                    "build_s": comb[4] - comb[3],
                    "toposort_s": sum(t[4] - t[3] for t in tape),
                    "backward_s": sum(b[4] - b[3] for b in back),
                    "adam_s": adam[4] - adam[3],
                    "nodes": sum((t[7] or {}).get("nodes", 0) for t in tape),
                })
        return out

    def node_sequences(self) -> dict[str, str]:
        """Per traced operation, the node count of every training step of every
        (arm, seed) run in step order, as a canonical string."""
        seqs: dict[str, dict[str, list[int]]] = {run: {} for run in self.op_runs}
        for rec in self.steps(set(self.op_runs)):
            seqs[rec["run"]].setdefault(f"{rec['arm']}/{rec['seed']}", []).append(rec["nodes"])
        return {run: json.dumps(per, sort_keys=True) for run, per in seqs.items()}

    def roadmap_table(self) -> dict[str, dict]:
        """Per arm: mean ms per step for build, toposort, backward and Adam, and mean nodes."""
        by_arm: dict[str, list[dict]] = defaultdict(list)
        for rec in self.steps(set(self.op_runs)):
            by_arm[rec["arm"]].append(rec)
        table = {}
        for arm in ARMS:
            recs = by_arm.get(arm)
            if not recs:
                continue
            n = len(recs)
            table[arm] = {
                "build_ms": 1e3 * sum(r["build_s"] for r in recs) / n,
                "toposort_ms": 1e3 * sum(r["toposort_s"] for r in recs) / n,
                "backward_ms": 1e3 * sum(r["backward_s"] for r in recs) / n,
                "adam_ms": 1e3 * sum(r["adam_s"] for r in recs) / n,
                "nodes": sum(r["nodes"] for r in recs) / n,
                "steps": n,
            }
        return table

    def _pool(self, run: str) -> dict[str, float]:
        ablations = self._named("evaluation.run_ablation", {run})
        if not ablations:
            return {"setup": 0.0, "idle": 0.0, "tail": 0.0}
        abl = ablations[0]
        jobs = [c for c in self.children.get(abl[0], []) if c[2] == "evaluation.run_single"]
        if not jobs:
            return {"setup": 0.0, "idle": 0.0, "tail": 0.0}
        wall = abl[4] - abl[3]
        workers = (abl[7] or {}).get("workers", 1)
        busy = sum(j[4] - j[3] for j in jobs)
        last_end: dict[int, float] = {}
        for j in jobs:
            last_end[j[5]] = max(last_end.get(j[5], j[4]), j[4])
        return {"setup": min(j[3] for j in jobs) - abl[3],
                "idle": 1.0 - busy / (max(workers, 1) * wall),
                "tail": abl[4] - min(last_end.values())}

    def metrics(self, traced_op_s: list[float], untraced_op_s: list[float],
                nonzero_exits: int) -> dict[str, float]:
        runs = set(self.op_runs)
        n_ops = max(len(self.op_runs), 1)
        out: dict[str, float] = {}

        step_ms = [1e3 * r["step_s"] for r in self.steps()]
        for metric, span_name in TIMINGS.items():
            if metric == "training.step_ms":
                values = step_ms
            elif metric in ("autodiff.toposort_s", "autodiff.backward_s"):
                values = [s[4] - s[3] for s in self._first_order(span_name)]
            else:
                values = [s[4] - s[3] for s in self._named(span_name)]
            p50, p90 = _quantiles(values)
            out[f"{metric}.p50"], out[f"{metric}.p90"], out[f"{metric}.n"] = p50, p90, len(values)

        def attr_sum(name, key):
            return sum((s[7] or {}).get(key, 0) for s in self._named(name, runs))

        used = attr_sum("losses.l_ocd", "used")
        attempted = attr_sum("losses.l_ocd", "attempted")
        pools = [self._pool(run) for run in self.op_runs]
        out.update({
            "data.jsonl_bytes": attr_sum("data.write", "bytes") / n_ops,
            "data.featurize_rows": attr_sum("data.featurize_matrix", "rows") / n_ops,
            "data.featurize_sparse_calls": sum(
                self.counts.get(run, {}).get("data.featurize_sparse_calls", 0)
                for run in runs) / n_ops,
            "losses.ocd_pairs_used": used / n_ops,
            "losses.ocd_pairs_attempted": attempted / n_ops,
            "losses.ocd_used_ratio": used / attempted if attempted else 0.0,
            "autodiff.grad2_calls": len(self._named("autodiff.grad2", runs)) / n_ops,
            "training.steps": len(self._named("training.adam", runs)) / n_ops,
            "training.examples": attr_sum("losses.combined", "examples") / n_ops,
            "evaluation.jobs": len(self._named("evaluation.run_single", runs)) / n_ops,
            "evaluation.pool_setup_s": statistics.median(p["setup"] for p in pools) if pools else 0.0,
            "evaluation.pool_idle_share": statistics.median(p["idle"] for p in pools) if pools else 0.0,
            "evaluation.tail_s": statistics.median(p["tail"] for p in pools) if pools else 0.0,
        })

        table = self.roadmap_table()
        for arm in ARMS:
            out[f"autodiff.nodes_per_step.{arm}"] = table.get(arm, {}).get("nodes", 0.0)

        layer_self = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            if s[6] in runs:
                layer_self[s[2].split(".", 1)[0]] += self._self_time(s)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / n_ops

        out["cli.nonzero_exits"] = nonzero_exits
        untraced = statistics.median(untraced_op_s) if untraced_op_s else 0.0
        traced = statistics.median(traced_op_s) if traced_op_s else 0.0
        out["trace.overhead_share"] = traced / untraced - 1.0 if untraced else 0.0
        out["trace.spans_per_op"] = sum(1 for s in self.spans if s[6] in runs) / n_ops
        return out
