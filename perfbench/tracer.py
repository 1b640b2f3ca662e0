"""Spans around the package's public functions, for the traced run only.

``Tracer.install`` wraps each target from outside the package. Modules
bind names at import (``from ._kernels import entropy_from_probs`` in
``engine``, ``spaces`` and ``systems``, and so on), so a target function
is replaced wherever it appears as a global of a loaded
``folner_entropy.*`` module; methods and classmethods are replaced on
their classes. ``uninstall`` puts every original back.

A span records its name, start, end, parent span and op id, plus one
size and one auxiliary count taken from the call's arguments or
result. Spans are kept in flat arrays in memory and written once, by
``save``, when the run ends. Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import folner_entropy as fe

KERNELS = (
    "iid_pattern_logprobs",
    "markov_interval_logprobs",
    "markov_window_probs",
    "entropy_from_probs",
    "entropy_from_logprobs",
)
PATTERN_SOURCES = {
    "kernels.iid_pattern_logprobs",
    "kernels.markov_interval_logprobs",
    "kernels.markov_window_probs",
    "systems.symbol_pattern_logprobs",
    "systems.symbol_pattern_probs",
    "systems.window_partition",
}
ROUTES = ("finite_join", "enumeration", "product_closed_form", "mixture_split", "cap_error")
SYSTEM_KIND = {fe.FinitePMPAction: 1, fe.ShiftSystem: 2, fe.MixtureSystem: 3}
CBE = "engine.conditional_block_entropy"


def _len_result(args, kwargs, result, state):
    return len(result), 0


def _len_arg0(args, kwargs, result, state):
    return int(np.size(args[0])), 0


def _space_of_arg0(args, kwargs, result, state):
    return len(args[0].space), 0


def _atom_map_steps(args, kwargs, result, state):
    return sum(abs(int(e)) for e in args[1]), 0


def _join_atoms(args, kwargs, result, state):
    return len(args[0][0].space), 0


def _partition_atoms(args, kwargs, result, state):
    return len(args[1]), 0


def _system_kind(args, kwargs, result, state):
    return 0, SYSTEM_KIND.get(type(args[0]), 0)


def _trace_rows(args, kwargs, result, state):
    trace, _ = result
    return len(trace), int(trace.truncated)


def _count_phi(args, kwargs):
    """Wrap the set function so its evaluations are counted."""
    phi, rest = args[0], args[1:]
    count = [0]

    def counted(F):
        count[0] += 1
        return phi(F)

    return (counted, *rest), kwargs, count


def _phi_evals(args, kwargs, result, count):
    return count[0], sum(result.checked.values())


def _label(module: str, qualname: str) -> str:
    """Span and metric name of a target; ``_kernels`` is reported as ``kernels``."""
    return f"{module.lstrip('_')}.{qualname}"


# (module, qualified name, pre-call hook, size/aux function)
TARGETS = [
    *[("_kernels", k, None, _len_result) for k in KERNELS[:3]],
    *[("_kernels", k, None, _len_arg0) for k in KERNELS[3:]],
    ("systems", "symbol_pattern_logprobs", None, None),
    ("systems", "symbol_pattern_probs", None, None),
    ("systems", "window_partition", None, None),
    ("systems", "subpattern_codes", None, None),
    ("systems", "act", None, _space_of_arg0),
    ("systems", "FinitePMPAction.atom_map", None, _atom_map_steps),
    ("spaces", "join_all", None, _join_atoms),
    ("spaces", "Partition.__init__", None, _partition_atoms),
    ("spaces", "entropy", None, None),
    ("spaces", "conditional_entropy", None, None),
    ("spaces", "disintegrate", None, None),
    ("spaces", "FiniteProbabilitySpace.mass_of", None, None),
    ("groups", "FolnerSubset.box", None, _len_result),
    ("groups", "FolnerSubset.interval", None, _len_result),
    ("groups", "verify_subadditive_hypotheses", _count_phi, _phi_evals),
    ("engine", "conditional_block_entropy", None, _system_kind),
    ("engine", "entropy_rate", None, _trace_rows),
    ("engine", "verify_entropy_identities", None, None),
    ("engine", "verify_rate_inequalities", None, None),
    ("engine", "verify_chain_exhaustion", None, None),
    ("decomposition", "decompose_entropy", None, None),
    ("decomposition", "conditional_mass_function", None, None),
    ("decomposition", "ergodic_components", None, None),
    ("suites", "sweep_identities", None, None),
    ("suites", "sweep_disintegration", None, None),
    ("suites", "sweep_exhaustion", None, None),
]

# the size count reported beside calls and self_s, by target
SIZE_FIELDS = {
    "systems.act": "atoms",
    "systems.FinitePMPAction.atom_map": "steps",
    "spaces.join_all": "atoms",
    "spaces.Partition.__init__": "atoms",
    "groups.FolnerSubset.box": "elements",
    "groups.FolnerSubset.interval": "elements",
    **{f"kernels.{k}": "items" for k in KERNELS},
}

CLI_METRICS = [
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    ("cli.verb_s", "s"),
    ("cli.bytes_written", "B/pass"),
    ("cli.files_written", "count/pass"),
]
OVERHEAD_METRICS = [
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_frac", "ratio"),
]


def layer_metric_names() -> list:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, qualname, _, _ in TARGETS:
        label = _label(module, qualname)
        out += [(f"{label}.calls", "count/pass"), (f"{label}.self_s", "s/pass")]
        if label in SIZE_FIELDS:
            out.append((f"{label}.{SIZE_FIELDS[label]}", "count/pass"))
    out += [
        ("kernels.bytes_computed", "B/pass"),
        ("groups.phi_evals_per_check", "ratio"),
        ("engine.entropy_rate.rows", "count/pass"),
        ("engine.entropy_rate.truncated", "count/pass"),
        *[(f"engine.route.{r}", "count/pass") for r in ROUTES],
        ("engine.enum_useful_frac", "ratio"),
    ]
    return out + CLI_METRICS + OVERHEAD_METRICS


class Tracer:
    def __init__(self):
        self.labels: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self.aux = array("q")
        self.flag = array("b")  # 0 returned, 1 EnumerationCapError, 2 other exception
        self._stack = [-1]
        self._op_id = -1
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.size.append(0)
        self.aux.append(0)
        self.flag.append(0)
        self._stack.append(i)
        return i

    def _wrap(self, label: str, fn, pre, sizer):
        nid = self._label_id(label)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if pre is not None:
                args, kwargs, state = pre(args, kwargs)
            i = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.flag[i] = 1 if isinstance(exc, fe.EnumerationCapError) else 2
                raise
            finally:
                self.end[i] = clock()
                self.start[i] = t0
                self._stack.pop()
            if sizer is not None:
                self.size[i], self.aux[i] = sizer(args, kwargs, result, state)
            return result

        return traced

    def run_op(self, kind: str, op_id: int, fn):
        """Run one op under a root span named ``op.<kind>``."""
        self._op_id = op_id
        i = self._open(self._label_id(f"op.{kind}"))
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.end[i] = time.perf_counter()
            self.start[i] = t0
            self._stack.pop()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "folner_entropy" or n.startswith("folner_entropy."))]
        for module, qualname, pre, sizer in TARGETS:
            owner = sys.modules[f"folner_entropy.{module}"]
            label = _label(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(label, raw.__func__, pre, sizer))
                else:
                    new = self._wrap(label, raw, pre, sizer)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            fn = getattr(owner, qualname)
            wrapped = self._wrap(label, fn, pre, sizer)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        cols = {"name": np.int64, "parent": np.int64, "op": np.int64, "start": np.float64,
                "end": np.float64, "size": np.int64, "aux": np.int64, "flag": np.int8}
        return {col: np.array(getattr(self, col), dtype=dt) for col, dt in cols.items()}

    def save(self, path, env: dict) -> None:
        np.savez(path, labels=np.array(self.labels), env=np.array(json.dumps(env)), **self.arrays())

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer totals per pass of the op mix, keyed by metric name."""
        a = self.arrays()
        n = len(a["start"])
        label_of = np.array(self.labels, dtype=str)[a["name"]]
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - covered[:n]

        sums = defaultdict(float)
        for key, calls, st, size in zip(*self._group(label_of, self_t, a["size"])):
            sums[f"{key}.calls"] = calls
            sums[f"{key}.self_s"] = st
            if key in SIZE_FIELDS:
                sums[f"{key}.{SIZE_FIELDS[key]}"] = size
        kernel_items = sum(sums[f"kernels.{k}.items"] for k in KERNELS)
        sums["kernels.bytes_computed"] = 8.0 * kernel_items

        vsh = label_of == "groups.verify_subadditive_hypotheses"
        checks = a["aux"][vsh].sum()
        phi_per_check = float(a["size"][vsh].sum() / checks) if checks else 0.0
        rate = label_of == "engine.entropy_rate"
        sums["engine.entropy_rate.rows"] = float(a["size"][rate].sum())
        sums["engine.entropy_rate.truncated"] = float(a["aux"][rate].sum())
        routes, useful = self._routes(a, label_of)
        for r in ROUTES:
            sums[f"engine.route.{r}"] = float(routes[r])

        out = {}
        for name, unit in layer_metric_names():
            if name.startswith(("cli.", "trace.")):
                continue
            value = sums.get(name, 0.0)
            if unit.endswith("/pass"):
                value = value / passes
            out[name] = (value, unit)
        out["groups.phi_evals_per_check"] = (phi_per_check, "ratio")
        out["engine.enum_useful_frac"] = (useful, "ratio")
        return out

    @staticmethod
    def _group(label_of, self_t, size):
        keys, inv = np.unique(label_of, return_inverse=True)
        calls = np.bincount(inv, minlength=len(keys)).astype(float)
        st = np.bincount(inv, weights=self_t, minlength=len(keys))
        sz = np.bincount(inv, weights=size.astype(float), minlength=len(keys))
        return keys, calls, st, sz

    @staticmethod
    def _routes(a, label_of):
        """Route per block-entropy call, and the useful share of kernel items.

        A call that raised ``EnumerationCapError`` is ``cap_error``; a
        finite action is ``finite_join``; a shift is ``enumeration`` when
        a pattern source ran directly under it, else
        ``product_closed_form``; a mixture is ``mixture_split`` when a
        nested block entropy ran under it, else ``enumeration``. Kernel
        items are useful when every enclosing block entropy returned and
        the nearest one did not split (its own enumeration was thrown
        away).
        """
        n = len(label_of)
        parent, flag, aux, size = a["parent"], a["flag"], a["aux"], a["size"]
        is_cbe = label_of == CBE
        is_pattern = np.isin(label_of, list(PATTERN_SOURCES))
        is_kernel = np.char.startswith(label_of, "kernels.")
        # nearest enclosing block-entropy span, the span itself excluded
        enclosing = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                enclosing[i] = p if is_cbe[p] else enclosing[p]
        has_pattern = np.zeros(n, dtype=bool)
        has_nested = np.zeros(n, dtype=bool)
        owners = enclosing[is_pattern]
        has_pattern[owners[owners >= 0]] = True
        owners = enclosing[is_cbe]
        has_nested[owners[owners >= 0]] = True

        routes = dict.fromkeys(ROUTES, 0)
        route_of = {}
        for i in np.flatnonzero(is_cbe):
            if flag[i] == 1:
                r = "cap_error"
            elif aux[i] == 1:
                r = "finite_join"
            elif aux[i] == 2:
                r = "enumeration" if has_pattern[i] else "product_closed_form"
            else:
                r = "mixture_split" if has_nested[i] else "enumeration"
            if flag[i] != 2:
                routes[r] += 1
            route_of[i] = r

        kept = {}

        def chain_ok(c):
            if c not in kept:
                outer = enclosing[c]
                kept[c] = flag[c] == 0 and (outer < 0 or chain_ok(outer))
            return kept[c]

        total = useful = 0
        for i in np.flatnonzero(is_kernel):
            c = enclosing[i]
            if c < 0:
                continue
            total += size[i]
            if chain_ok(c) and route_of[c] != "mixture_split":
                useful += size[i]
        return routes, (useful / total if total else 0.0)
