"""cadlab benchmark: fixed-work workloads driven through the package's public
entry points (``cadlab.training.train``, ``cadlab.evaluation.run_ablation``
and, in-process, ``cadlab.cli.main``).

Run from the repository root:

    python3 perfbench/run.py --workload train-full --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout the script sits in.
After the set-up (repeated, median reported) and one warm-up operation, the
workload's operation is repeated until ``--seconds`` have passed; every
operation is the same fixed amount of work, so a faster program completes
each one sooner. Outputs are checked on every operation. With ``--trace 1``
operations alternate between untraced and traced (see ``spans.py``) and the
per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(machine context, workload description, per-operation samples) is written to
``.perfbench/records/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
MIN_OPS = 4
NPROC = len(os.sched_getaffinity(0))

# the acceptance configuration (tests/test_acceptance.py), one epoch per operation
ACCEPT_GEN = {"rho_train": 0.9, "edit_scope": 0.5}
ACCEPT_TRAIN = {"alpha": 1.6, "beta": 0.1, "learning_rate": 1e-3, "batch_pairs": 16,
                "embed_dim": 8, "optimizer": "adam", "env_mode": "disjoint", "epochs": 1}

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "examples_per_s": "examples/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


# ---------------------------------------------------------------------------
# host-speed reference
#
# On a shared 2-core host the same Python code can run up to 2x slower for
# stretches of seconds, depending on the neighbours. Every timed interval is
# bracketed by a fixed pure-Python probe, and is reported scaled to a
# reference probe time: scaled = wall * (PROBE_REF_S / probe) ** PROBE_EXPONENT,
# with probe the mean of the readings just before and just after it. The
# probe slows down more than cadlab does in those stretches: from a fast to a
# slow stretch the probe took about 2.0x longer and an operation 1.7-1.8x,
# an elasticity of about 0.75. The probe does not use cadlab, so no change
# to the package moves it. Raw wall times are kept in the record.

PROBE_REF_S = 0.03
PROBE_EXPONENT = 0.75


def _probe_once(n: int = 60000) -> float:
    """Seconds taken by a fixed pure-Python loop of float, list and dict work.

    It allocates no garbage-collected containers, so its time does not depend
    on how many objects the package under test keeps alive.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    slots = [0.0] * 256
    acc = 0.0
    for i in range(n):
        k = (i * 2654435761) & 1023
        x = math.tanh(slots[i & 255] + k * 1e-3)
        slots[i & 255] = x * 0.5
        table[k] = table.get(k, 0.0) + x
        acc += x * x
    return time.perf_counter() - t0


def speed_probe(procs: int = 1) -> float:
    """The faster of two probe runs, so a brief disturbance (a pool shutting
    down, say) does not count as a slow host.

    With procs > 1 the probe runs in that many forked processes at once, one
    per core a parallel operation uses, and their mean is returned.
    """
    if procs <= 1:
        return min(_probe_once(), _probe_once())
    readers = []
    for _ in range(procs):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            try:
                os.write(w, repr(min(_probe_once(), _probe_once())).encode())
            finally:
                os._exit(0)
        os.close(w)
        readers.append((pid, r))
    values = []
    for pid, r in readers:
        with os.fdopen(r, "rb") as fh:
            values.append(float(fh.read()))
        os.waitpid(pid, 0)
    return sum(values) / len(values)


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * (PROBE_REF_S / probe_s) ** PROBE_EXPONENT


class Cadlab:
    """The package under test, imported from the checkout's src/ directory."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "cadlab", "__init__.py")):
            raise SystemExit(f"perfbench: no cadlab package under {SRC}")
        sys.path.insert(0, SRC)
        t0 = time.perf_counter()
        import cadlab
        from cadlab import cli, data, evaluation, training
        self.import_s = time.perf_counter() - t0
        if not os.path.abspath(cadlab.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: imported cadlab from {cadlab.__file__}, not {SRC}")
        self.cli, self.data, self.evaluation, self.training = cli, data, evaluation, training

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        """cadlab.cli.main in-process; its stdout report is captured, not printed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, err.getvalue().strip()

    def generator(self, n_pairs: int, n_ood: int, seed: int):
        return self.data.GeneratorConfig(n_pairs=n_pairs, n_ood=n_ood, seed=seed, **ACCEPT_GEN)

    def train_config(self, seed: int, **changes):
        return self.training.TrainConfig(**{**ACCEPT_TRAIN, **changes}, seed=seed)


class Outcome:
    """What one operation did: examples processed, an output digest, problems found."""

    def __init__(self, examples: int, digest: str, problems: list[str], detail: dict):
        self.examples = examples
        self.digest = digest
        self.problems = problems
        self.detail = detail


# ---------------------------------------------------------------------------
# workloads

class TrainFull:
    name = "train-full"
    why = ("The paper's objective L_P + 1.6 L_IRM + 0.1 L_OCD: every step builds the "
           "second-order IRM graph and runs the scalar backward pass.")
    stresses = ["losses", "autodiff", "training", "model (graph forward)"]
    bypasses = ["evaluation", "cli", "data I/O"]
    N_PAIRS = 500
    processes = 1

    def __init__(self, lab: Cadlab, seed: int, work: str):
        self.lab, self.seed, self.work = lab, seed, work
        self.sizes = {"n_pairs": self.N_PAIRS, "epochs": 1, "batch_pairs": 16,
                      "embed_dim": 8, "alpha": 1.6, "beta": 0.1}

    def setup(self) -> None:
        lab = self.lab
        self.dataset = lab.data.generate_cad(lab.generator(self.N_PAIRS, 1000, self.seed))
        self.vocab = lab.data.Vocab.from_examples(self.dataset.train_examples())
        self.config = lab.train_config(self.seed)

    def op(self) -> Outcome:
        checkpoint, log = self.lab.training.train(self.config, self.dataset.train_pairs,
                                                  vocab=self.vocab)
        problems = []
        if not all(math.isfinite(v) for b in log.steps for v in (b.l_p, b.l_irm, b.l_ocd, b.total)):
            problems.append("non-finite loss in the step log")
        examples = sum(len(u.members()) for u in self.dataset.train_pairs) * self.config.epochs
        return Outcome(examples, sha256(log.step_csv() + log.epoch_csv()), problems, {
            "train_final_loss": log.epochs[-1].mean_total,
            "train_accuracy": checkpoint.train_accuracy,
        })

    @staticmethod
    def summarize(ops: list[dict]) -> dict:
        wall = sum(o["wall_s"] for o in ops)
        return {"train_examples_per_s": sum(o["examples"] for o in ops) / wall,
                "train_final_loss": ops[-1]["detail"]["train_final_loss"],
                "train_accuracy": ops[-1]["detail"]["train_accuracy"]}


class AblateParallel:
    name = "ablate-parallel"
    why = ("The paper's main protocol: four arms x two seeds in a fork pool of nproc "
           "workers. Half the arms never build the IRM graph, and each run adds "
           "evaluation, the probe and pool cost.")
    stresses = ["evaluation (runner, pool, probe)", "training", "losses", "autodiff", "model"]
    bypasses = ["cli", "data I/O"]
    N_PAIRS = 250
    N_OOD = 500
    processes = NPROC

    def __init__(self, lab: Cadlab, seed: int, work: str):
        self.lab, self.seed, self.work = lab, seed, work
        self.seeds = [seed, seed + 1]
        self.sizes = {"n_pairs": self.N_PAIRS, "n_ood": self.N_OOD, "epochs": 1, "seeds": self.seeds,
                      "arms": 4, "workers": NPROC}

    def setup(self) -> None:
        lab = self.lab
        self.dataset = lab.data.generate_cad(lab.generator(self.N_PAIRS, self.N_OOD, self.seed))
        self.config = lab.train_config(self.seed)

    def op(self) -> Outcome:
        result = self.lab.evaluation.run_ablation(self.config, self.dataset, self.seeds,
                                                  workers=NPROC)
        rows = result["rows"]
        problems = []
        if len(rows) != 4 * len(self.seeds):
            problems.append(f"expected {4 * len(self.seeds)} ablation rows, got {len(rows)}")
        if not all(math.isfinite(v) for row in rows for v in row.values() if isinstance(v, float)):
            problems.append("non-finite value in the ablation rows")
        ds = self.dataset
        trained = sum(len(u.members()) for u in ds.train_pairs) * self.config.epochs
        n_eval = len(ds.ood) + len(ds.ood_stress)
        # per run: training examples, one eval pass per OOD split, four probe passes
        examples = len(rows) * (trained + n_eval + 4 * n_eval)
        return Outcome(examples, sha256(json.dumps(result, sort_keys=True)), problems, {
            "runs": len(rows),
            "ablation_mean_ood_full": result["summary"]["full"]["mean_ood"],
            "ablation_mean_ood_neither": result["summary"]["neither"]["mean_ood"],
        })

    @staticmethod
    def summarize(ops: list[dict]) -> dict:
        wall = sum(o["wall_s"] for o in ops)
        return {"ablation_runs_per_s": sum(o["detail"]["runs"] for o in ops) / wall,
                "ablation_mean_ood_full": ops[-1]["detail"]["ablation_mean_ood_full"],
                "ablation_mean_ood_neither": ops[-1]["detail"]["ablation_mean_ood_neither"]}


class DataEval:
    name = "data-eval"
    why = ("The CLI data path: generate a dataset with 2x the acceptance OOD size, read "
           "it back, then eval and probe a fixed checkpoint on both OOD splits.")
    stresses = ["data (generate, JSONL write/read, featurize_matrix)", "model.Snapshot",
                "evaluation", "cli"]
    bypasses = ["autodiff", "losses", "training (only the set-up trains the checkpoint)"]
    N_PAIRS = 500
    N_OOD = 2000
    processes = 1

    def __init__(self, lab: Cadlab, seed: int, work: str):
        self.lab, self.seed, self.work = lab, seed, work
        self.sizes = {"n_pairs": self.N_PAIRS, "n_ood": self.N_OOD,
                      "checkpoint": "1 epoch, alpha=beta=0"}
        self.gen_json = os.path.join(work, "generator.json")
        self.train_json = os.path.join(work, "train.json")
        self.op_dir = os.path.join(work, "op")
        self.n_setups = 0
        self.nonzero_exits = 0

    def _cli(self, argv: list[str], problems: list[str], timings: dict, key: str) -> None:
        t0 = time.perf_counter()
        code, err = self.lab.run_cli(argv)
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
        if code != 0:
            problems.append(f"`cadlab {argv[0]}` exited {code}: {err}")
            self.nonzero_exits += 1

    def setup(self) -> None:
        gen = self.lab.generator(self.N_PAIRS, self.N_OOD, self.seed).to_dict()
        with open(self.gen_json, "w", encoding="utf-8") as fh:
            json.dump(gen, fh)
        cfg = self.lab.train_config(self.seed, alpha=0.0, beta=0.0).to_dict()
        cfg.pop("seed")
        with open(self.train_json, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.n_setups += 1
        base = os.path.join(self.work, f"setup{self.n_setups}")
        problems: list[str] = []
        self._cli(["generate", "--config", self.gen_json, "--out", os.path.join(base, "data")],
                  problems, {}, "generate")
        self._cli(["train", "--config", self.train_json, "--data", os.path.join(base, "data"),
                   "--out", os.path.join(base, "run"), "--seed", str(self.seed)],
                  problems, {}, "train")
        if problems:
            raise RuntimeError("; ".join(problems))
        self.checkpoint = os.path.join(base, "run", "checkpoint.json")

    def op(self) -> Outcome:
        lab, d = self.lab, self.op_dir
        shutil.rmtree(d, ignore_errors=True)
        problems: list[str] = []
        timings: dict[str, float] = {}
        self._cli(["generate", "--config", self.gen_json, "--out", d], problems, timings, "io")
        t0 = time.perf_counter()
        dataset = lab.data.read_dataset(d)
        timings["io"] += time.perf_counter() - t0
        written = 2 * self.N_PAIRS + 2 * self.N_OOD
        read = len(dataset.train_examples()) + len(dataset.ood) + len(dataset.ood_stress)
        if read != written:
            problems.append(f"wrote {written} examples, read back {read}")
        outputs = []
        for split in ("ood", "ood_stress"):
            data_path = os.path.join(d, f"{split}.jsonl")
            for cmd in ("eval", "probe"):
                out = os.path.join(d, f"{cmd}_{split}.json")
                self._cli([cmd, "--checkpoint", self.checkpoint, "--data", data_path, "--out", out],
                          problems, timings, "score")
                outputs.append(out)
        digest = hashlib.sha256()
        for out in outputs:
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    digest.update(fh.read())
        eval_ood = os.path.join(d, "eval_ood.json")
        accuracy = None
        if os.path.exists(eval_ood):
            with open(eval_ood, encoding="utf-8") as fh:
                accuracy = json.load(fh)["accuracy"]
        n_ood = len(dataset.ood)
        scored = 2 * 5 * n_ood        # per split: one eval pass, four probe passes
        loaded = 4 * n_ood            # each eval/probe command loads its split
        return Outcome(written + read + loaded + scored, digest.hexdigest(), problems, {
            "io_examples": written + read, "io_s": timings.get("io", 0.0),
            "scored_examples": scored, "score_s": timings.get("score", 0.0),
            "eval_accuracy_ood": accuracy,
        })

    @staticmethod
    def summarize(ops: list[dict]) -> dict:
        return {
            "eval_examples_per_s": (sum(o["detail"]["scored_examples"] for o in ops)
                                    / sum(o["detail"]["score_s"] for o in ops)),
            "io_examples_per_s": (sum(o["detail"]["io_examples"] for o in ops)
                                  / sum(o["detail"]["io_s"] for o in ops)),
            "eval_accuracy_ood": ops[-1]["detail"]["eval_accuracy_ood"],
        }


WORKLOADS = {w.name: w for w in (TrainFull, AblateParallel, DataEval)}


# ---------------------------------------------------------------------------
# machine context

def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git directly (no subprocess)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> dict:
    import numpy as np
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # numpy's extension module links the BLAS; dlsym on it finds the thread query
    from numpy._core import _multiarray_umath
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["threads"] = fn()
            break
    return info


def machine_context(load_at_start: tuple) -> dict:
    import numpy as np
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_sha": _git_sha(),
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# benchmark run

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    load_at_start = os.getloadavg()
    probe_before_import = speed_probe()
    lab = Cadlab()
    work = os.path.join(STATE_DIR, "work", f"{workload_name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run_in(lab, work, workload_name, seed, seconds, trace, load_at_start,
                       probe_before_import)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(lab: Cadlab, work: str, workload_name: str, seed: int, seconds: float,
            trace: bool, load_at_start: tuple, probe_before_import: float) -> dict:
    workload = WORKLOADS[workload_name](lab, seed, work)
    shims = tracer = None
    if trace:
        from spans import Shims, Tracer
        spool = os.path.join(work, "spool")
        os.makedirs(spool)
        tracer = Tracer(spool)
        shims = Shims(tracer)
        shims.install()

    procs = workload.processes
    probe_prev = speed_probe(procs)
    import_probe_s = (probe_before_import + probe_prev) / 2
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - t0
        probe = speed_probe(procs)
        setups.append({"wall_s": wall, "probe_s": (probe_prev + probe) / 2})
        probe_prev = probe
    if shims is not None:
        shims.remove()

    ops: list[dict] = []
    failures: list[str] = []
    op_runs: list[str] = []

    def one_op(index: int, traced: bool, timed: bool) -> None:
        nonlocal probe_prev
        run_id = f"op{index}"
        if traced:
            tracer.run = run_id
            op_runs.append(run_id)
            shims.install()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            outcome = workload.op()
            error = None
        except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
            outcome, error = None, f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if traced:
            shims.remove()
            tracer.collect()
        probe = speed_probe(procs)
        rec = {"index": index, "traced": traced, "timed": timed, "wall_s": wall, "cpu_s": cpu,
               "probe_s": (probe_prev + probe) / 2}
        probe_prev = probe
        problems = [error] if error else list(outcome.problems)
        if outcome is not None:
            rec.update(examples=outcome.examples, digest=outcome.digest, detail=outcome.detail)
            if ops and ops[0].get("digest") and outcome.digest != ops[0]["digest"]:
                problems.append(f"output digest of op {index} differs from op 0")
        rec["problems"] = problems
        failures.extend(f"op {index}: {p}" for p in problems)
        ops.append(rec)

    one_op(0, traced=False, timed=False)          # warm-up: lazy set-up, digest reference
    window = time.perf_counter()
    index = 1
    while index <= MIN_OPS or time.perf_counter() - window < seconds:
        one_op(index, traced=trace and index % 2 == 0, timed=True)
        index += 1

    timed_ops = [o for o in ops if o["timed"] and not o["problems"]]
    untraced = [o for o in timed_ops if not o["traced"]]
    failed = sum(1 for o in ops if o["problems"])
    record = {
        "workload": {"name": workload.name, "why": workload.why, "stresses": workload.stresses,
                     "bypasses": workload.bypasses, "seed": seed, "sizes": workload.sizes,
                     "loop": "closed, one caller", "trace": trace},
        "machine": machine_context(load_at_start),
        "seconds": seconds,
        "probe_ref_s": PROBE_REF_S,
        "probe_exponent": PROBE_EXPONENT,
        "import": {"wall_s": lab.import_s, "probe_s": import_probe_s},
        "setups": setups,
        "ops": ops,
        "failures": failures,
    }
    if untraced:
        record["workload_metrics_raw"] = workload.summarize(untraced)
        record["raw_medians"] = {
            "setup_s": lab.import_s + statistics.median(s["wall_s"] for s in setups),
            "op_s": statistics.median(o["wall_s"] for o in untraced),
            "cpu_s": statistics.median(o["cpu_s"] for o in untraced),
            "probe_s": statistics.median(o["probe_s"] for o in untraced),
        }

    metrics: dict[str, float] = {}
    if not trace and untraced:
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "setup_s": (scaled(lab.import_s, import_probe_s)
                        + statistics.median(scaled(s["wall_s"], s["probe_s"]) for s in setups)),
            "op_s": statistics.median(scaled(o["wall_s"], o["probe_s"]) for o in untraced),
            "examples_per_s": statistics.median(o["examples"] / scaled(o["wall_s"], o["probe_s"])
                                                for o in untraced),
            "cpu_s": statistics.median(scaled(o["cpu_s"], o["probe_s"]) for o in untraced),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = END_TO_END_UNITS
    elif trace:
        from spans import Analysis, per_layer_units
        analysis = Analysis(tracer, op_runs)
        seqs = analysis.node_sequences()
        if len(set(seqs.values())) > 1:
            failed += 1
            failures.append("graph nodes per step differ between traced operations")
        metrics = analysis.metrics(
            [scaled(o["wall_s"], o["probe_s"]) for o in timed_ops if o["traced"]],
            [scaled(o["wall_s"], o["probe_s"]) for o in untraced],
            getattr(workload, "nonzero_exits", 0))
        record["roadmap_table"] = analysis.roadmap_table()
        units = per_layer_units()
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["attempted"] = len(ops)
    record["failed"] = failed
    record["failed_share"] = failed / len(ops)
    record["correct"] = failed == 0 and bool(metrics)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    records = os.path.join(STATE_DIR, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, value in sorted(record.get("workload_metrics_raw", {}).items()):
        print(f"{name} = {value}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
