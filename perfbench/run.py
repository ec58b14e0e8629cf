"""spnet benchmark: one closed-loop client driving the library's public calls.

Usage (from the repository root):

    python3 perfbench/run.py --workload ladder-h2 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Each op of a workload gets a fresh seeded instance and starts as soon as the
previous one returns. Every op is checked against the dense oracle before its
times count. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
each instance untraced and then traced, and prints the per-layer metrics, the
tracing overhead and the known-defect probes. The last stdout line is the
result as one JSON object; ``--workload all`` runs every workload both ways in
child processes and prints a table plus one combined JSON object.

All times are reference-speed seconds: each op's raw times are scaled by the
host speed measured next to it with a fixed numpy kernel (see
``workloads.CAL_REF_S``); the uncorrected medians go to stderr.

BLAS/OpenMP pools are pinned to one thread before numpy is imported, so the
dense and compositional paths are compared as single-threaded runs.
"""

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("ladder-h2", "chain-opt", "k16-opt")
# Timed op parts and the end-to-end metric each one feeds.
PART_METRICS = {"h2": "h2_s", "oracle": "oracle_s", "opt": "opt_s", "opt_dense": "opt_dense_s"}
PATH_PROBE_EDGES = 2000
TIGHT_BOX_PROBES = 200
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def tree_shape(tree):
    """(height, leaves) of a binary decomposition tree, walked without recursion."""
    height = leaves = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if hasattr(node, "left"):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        else:
            leaves += 1
            height = max(height, depth)
    return height, leaves


class Run:
    """Drives one workload for a fixed time and collects times and failures."""

    def __init__(self, name, seed, workdir):
        import numpy as np

        import workloads
        from tracer import Tracer

        self.np = np
        self.wl = workloads
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.index = WORKLOAD_NAMES.index(name)
        self.graph_path = workdir / "graph.json"
        self.config_path = workdir / "config.json"
        self.tracer = Tracer()
        self.tracer.keep_results = {"sptree.recognize", "graph.dirichlet_laplacian", "matlin.project_box"}
        self.attempted = 0
        self.failed = 0
        self.instances = 0
        self.scales = {}  # traced op id -> speed factor
        self.raw = []  # uncorrected part times of every successful op

    def new_instance(self):
        """Write the next seeded instance; ops run on it until the next call."""
        rng = self.np.random.default_rng([self.seed, self.index, self.instances])
        self.instances += 1
        self.wl.write_instance(self.workload, rng, self.graph_path, self.config_path)

    def op(self, traced=False):
        """Run one op on the current instance.

        Returns its part times in reference-speed seconds (see
        ``workloads.CAL_REF_S``), or None if it failed. The speed factor of a
        traced op is kept in ``scales`` under its op id.
        """
        self.attempted += 1
        before = self.wl.calibration_s()
        self.tracer.op_id = self.attempted if traced else None
        try:
            times, outputs = self.wl.run_op(self.tracer, self.graph_path, self.config_path)
            self.tracer.op_id = None
            bad = self.wl.gate_failures(outputs)
        except Exception as exc:  # any failure of the library is a failed op, reported below
            self.tracer.op_id = None
            bad = [f"{type(exc).__name__}: {exc}"]
        scale = self.wl.CAL_REF_S / ((before + self.wl.calibration_s()) / 2)
        if traced:
            self.scales[self.attempted] = scale
        if bad:
            self.failed += 1
            print(f"op {self.attempted} failed: {'; '.join(bad[:3])}", file=sys.stderr)
            return None
        self.raw.append(times)
        return {part: t * scale for part, t in times.items()}


def end_to_end(run, seconds):
    run.new_instance()
    run.op()  # warm-up: lazy imports and first-call costs; times discarded
    run.raw.clear()
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        run.new_instance()
        times = run.op()
        if times is not None:
            samples.append(times)
    if not samples:
        return {}
    metrics = {"setup_s": (statistics.median(s["setup"] for s in samples), "s")}
    for part, name in PART_METRICS.items():
        values = [s[part] for s in samples]
        metrics[name] = (statistics.median(values), "s")
        metrics[f"{name}.p90"] = (p90(values), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = ", ".join(f"{part} {statistics.median(r[part] for r in run.raw):.5f}" for part in run.raw[0])
    print(f"{len(samples)} timed ops; uncorrected medians (s): {raw}", file=sys.stderr)
    return metrics


def probes(seed):
    """Known-defect probes, untimed, on the untraced library."""
    import numpy as np

    import gen
    from spnet import fileio, h2, matlin

    rng = np.random.default_rng([seed, 1000])
    try:
        h2.compositional_h2(fileio.graph_from_dict(gen.path(rng, 2, PATH_PROBE_EDGES)))
        recursion_fail = 0
    except RecursionError:
        recursion_fail = 1
    unconverged = sum(
        not matlin.project_box(x, lo, up)[1] for x, lo, up in gen.tight_boxes(rng, TIGHT_BOX_PROBES)
    )
    return {
        "probe.path_recursion_fail": (recursion_fail, "count"),
        "probe.tight_box_unconverged": (unconverged, "count"),
    }


def per_layer(run, seconds, spans_path):
    from tracer import LAYER_FUNCS, layer_label

    tracer = run.tracer
    tracer.install()
    try:
        run.new_instance()
        run.op()  # warm-up
        plain, traced = [], []
        shapes, orders = [], []
        unconverged = n = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            # Each instance runs untraced, then traced, so the overhead is
            # measured on equal inputs at nearly the same time.
            run.new_instance()
            untraced_times = run.op()
            traced_times = run.op(traced=True)
            n += 1
            if untraced_times is not None and traced_times is not None:
                plain.append(sum(untraced_times.values()))
                traced.append(sum(traced_times.values()))
            for label, result in tracer.results:
                if label == "sptree.recognize":
                    shapes.append(tree_shape(result))
                elif label == "graph.dirichlet_laplacian":
                    orders.append(result.matrix.shape[0])
                elif not result[1]:  # project_box returns (Y, converged)
                    unconverged += 1
            tracer.results.clear()
    finally:
        tracer.uninstall()
    if not traced:
        return {}
    totals = tracer.per_label(run.scales)
    metrics = {}
    for module, attr, kind in LAYER_FUNCS:
        label = layer_label(module, attr)
        self_s, calls = totals.get(label, (0.0, 0))
        if kind == "span":
            metrics[f"{label}.self_s"] = (self_s / n, "s")
        metrics[f"{label}.calls"] = (calls / n, "count")
    box_calls = totals.get("matlin.project_box", (0.0, 0))[1]
    psd_calls = totals.get("matlin.psd_part", (0.0, 0))[1]
    metrics["matlin.dykstra_iters"] = (psd_calls / 2 / box_calls if box_calls else 0.0, "count")
    metrics["matlin.project_box.unconverged"] = (unconverged / n, "count")
    metrics["graph.dirichlet_order"] = (statistics.fmean(orders) if orders else 0.0, "count")
    metrics["sptree.tree_height"] = (statistics.fmean(h for h, _ in shapes) if shapes else 0.0, "count")
    metrics["sptree.tree_leaves"] = (statistics.fmean(k for _, k in shapes) if shapes else 0.0, "count")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    metrics.update(probes(run.seed))
    report_regime(tracer, n)
    tracer.save(spans_path, json.dumps({"seed": run.seed, "traced_ops": n}))
    print(f"{n} traced ops, {len(traced)} pairs with the untraced op; spans in {spans_path}", file=sys.stderr)
    return metrics


def report_regime(tracer, n):
    """Print the traced time of the main layers as shares of the op parts."""
    import numpy as np

    spans = tracer.arrays()
    names = np.array(tracer.labels + [""])
    dur = spans["end"] - spans["start"]
    top = spans["parent"] < 0
    # Spans nest in the order they open, so each one belongs to the latest
    # top-level span (an op part) opened at or before it.
    root = np.maximum.accumulate(np.where(top, np.arange(len(dur)), 0))
    name = names[spans["label"]]
    parent_name = names[np.where(top, -1, spans["label"][spans["parent"]])]
    part = name[root]

    def part_total(p):
        return float(dur[name == f"op.{p}"].sum())

    def share(prefix, p):
        """Time in outermost spans named ``prefix*`` under op part ``p``, as a share of it."""
        outer = np.char.startswith(name, prefix) & ~np.char.startswith(parent_name, prefix)
        total = part_total(p)
        return float(dur[outer & (part == f"op.{p}")].sum()) / total if total else 0.0

    shares = {
        "recognize/h2": share("sptree.recognize", "h2"),
        "recognize/opt": share("sptree.recognize", "opt"),
        "electrical/opt": share("electrical.", "opt"),
        "project_box/opt": share("matlin.project_box", "opt"),
        "project_box/opt_dense": share("matlin.project_box", "opt_dense"),
    }
    print(
        "regime (shares of traced op parts): "
        + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
        + "; uncorrected traced s per op: "
        + ", ".join(f"{p} {part_total(p) / n:.4f}" for p in ("setup",) + tuple(PART_METRICS)),
        file=sys.stderr,
    )


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args):
    if not (ROOT / "src" / "spnet" / "__init__.py").is_file():
        print(f"spnet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    env = {var: os.environ[var] for var in THREAD_VARS}
    env["nproc"] = os.cpu_count()
    env["affinity"] = len(os.sched_getaffinity(0))
    print("env " + json.dumps(env))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        run = Run(args.workload, args.seed, pathlib.Path(workdir))
        if args.trace:
            metrics = per_layer(run, args.seconds, out / f"spans-{args.workload}.npz")
        else:
            metrics = end_to_end(run, args.seconds)
    declared = declared_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if run.failed:
        print(f"{run.failed} of {run.attempted} ops failed", file=sys.stderr)
    if emitted != declared:
        print(f"metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(declared))}", file=sys.stderr)
        return 3
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    combined = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            combined.setdefault(name, {})["per_layer" if trace else "end_to_end"] = result
            attempted, failed = result["attempted"], result["failed"]
            print(f"{name} trace={trace}: {attempted} ops, failed_frac {failed / attempted:.4f}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
