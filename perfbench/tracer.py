"""In-memory span tracer that wraps spnet's public functions from outside.

Each wrapped function is replaced in every ``spnet.*`` module namespace that
binds it, because modules import each other's functions by name (``h2`` does
``from .sptree import recognize``; ``optimize`` binds ``dense_h2``,
``dense_voltages`` and ``source_trees``), so patching only the defining
module would miss those calls. A span is (label, start, end, parent, op id);
a function's self time is its span time minus the time of its direct child
spans. Functions that recurse deeply or are called in tight loops are only
counted, and their time stays in their caller's self time.
"""

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, kind): "span" records a span per call, "count" only counts.
LAYER_FUNCS = [
    ("fileio", "load_graph", "span"),
    ("fileio", "load_config", "span"),
    ("graph", "make_graph", "span"),
    ("graph", "validate_consensus", "span"),
    ("graph", "ground_leaders", "span"),
    ("graph", "dirichlet_laplacian", "span"),
    ("graph", "MatrixGraph.with_weights", "span"),
    ("sptree", "recognize", "span"),
    ("sptree", "flip", "count"),
    ("h2", "source_trees", "span"),
    ("h2", "h2_exact_aittsp", "span"),
    ("h2", "dense_h2", "span"),
    ("h2", "dense_voltages", "span"),
    ("electrical", "solve_tree", "span"),
    ("electrical", "effective_resistance", "span"),
    ("electrical", "branch_currents", "span"),
    ("electrical", "voltage_drops", "span"),
    ("electrical", "split_current", "span"),
    ("electrical", "index_tree", "count"),
    ("matlin", "is_spd", "span"),
    ("matlin", "pinv", "span"),
    ("matlin", "parallel_add", "span"),
    ("matlin", "as_symmetric", "span"),
    ("matlin", "symmetrize", "count"),
    ("matlin", "project_box", "span"),
    ("matlin", "psd_part", "span"),
    ("optimize", "gradient_edge", "span"),
    ("optimize", "pgd_step", "span"),
    ("optimize", "penalty_term", "span"),
    ("optimize", "optimize_weights", "span"),
]


def layer_label(module, attr):
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records spans while ``op_id`` is set; a no-op pass-through otherwise."""

    def __init__(self):
        self.labels = []
        self._label_ids = {}
        self.label = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = []
        self.counts = Counter()  # label -> calls of count-only functions
        self.results = []  # (label, result) of the labels in ``keep_results``
        self.op_id = None
        self.keep_results = set()
        self._patches = []

    def _label_id(self, label):
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def span(self, label, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``label`` (traced ops only)."""
        if self.op_id is None:
            return fn(*args, **kwargs)
        sid = len(self.start)
        self.label.append(self._label_id(label))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1
        if label in self.keep_results:
            self.results.append((label, result))
        return result

    def _span_wrapper(self, label, fn):
        def wrapped(*args, **kwargs):
            return self.span(label, fn, *args, **kwargs)

        return wrapped

    def _count_wrapper(self, label, fn):
        def wrapped(*args, **kwargs):
            if self.op_id is not None:
                self.counts[label] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self):
        """Wrap every LAYER_FUNCS entry in every spnet namespace binding it.

        Entries the library no longer defines are skipped, so later versions
        that delete a function still run and report it as never called.
        """
        modules = [m for name, m in sys.modules.items() if name == "spnet" or name.startswith("spnet.")]
        for module, attr, kind in LAYER_FUNCS:
            label = layer_label(module, attr)
            owner = sys.modules[f"spnet.{module}"]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                continue  # removed from the library: reported as zero calls
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(label, original)
            for target in [owner] if path else modules:
                for bound_name, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, bound_name, original))
                        setattr(target, bound_name, wrapper)

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def arrays(self):
        """Spans as numpy arrays, plus each span's self time."""
        label, parent, op = (np.asarray(a, dtype=np.int64) for a in (self.label, self.parent, self.op))
        start, end = (np.asarray(a, dtype=float) for a in (self.start, self.end))
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "label": label,
            "start": start,
            "end": end,
            "parent": parent,
            "op": op,
            "self": dur - child,
        }

    def per_label(self, op_scale):
        """label -> (summed self time, call count) over all recorded spans.

        Each span's self time is multiplied by ``op_scale[op id]``.
        """
        a = self.arrays()
        n = len(self.labels)
        lut = np.ones(max(op_scale, default=0) + 1)
        lut[list(op_scale)] = list(op_scale.values())
        self_s = np.bincount(a["label"], weights=a["self"] * lut[a["op"]], minlength=n)
        calls = np.bincount(a["label"], minlength=n)
        out = {lab: (float(self_s[i]), int(calls[i])) for i, lab in enumerate(self.labels)}
        for lab, c in self.counts.items():
            s, k = out.get(lab, (0.0, 0))
            out[lab] = (s, k + c)
        return out

    def save(self, path, meta):
        a = self.arrays()
        np.savez(
            path,
            labels=np.array(self.labels),
            meta=np.array(meta),
            **{k: a[k] for k in ("label", "start", "end", "parent", "op")},
        )
