"""Per-layer tracing of toruslab, installed from outside the package.

Every function and method defined in the seven toruslab modules, but
for a few microsecond-sized helpers (see UNWRAPPED), is wrapped at every
module attribute that binds it (modules import functions by name) and on
its class for methods.  The wrappers keep two accounts on one call stack:

* per listed function: ``calls`` and self time, where self time is the
  call's duration minus the time spent in nested *listed* calls;
* per module: self time, the time spent in frames of that module minus
  the time spent in nested frames of other modules.

Stage-level listed functions also record spans (name, start, end,
parent, task) in memory; the hot field and matrix operators record only
counts and aggregated self time.  Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

MODULES = ("exactfield", "linalg", "torus", "endo", "neronseveri",
           "papercheck", "cli")

#: metric name -> (class name or None, attribute names) per module.  A
#: method alias such as ``__rmul__ = __mul__`` is the same function object
#: and is wrapped together with it.
LISTED = {
    "exactfield": {
        "mul": ("FieldElement", ("__mul__",)),
        "div": ("FieldElement", ("__truediv__", "__rtruediv__")),
        "add": ("FieldElement", ("__add__",)),
        "conjugate": ("FieldElement", ("conjugate",)),
        "imag_part": ("FieldElement", ("imag_part",)),
        "embed": (None, ("embed",)),
        "exact_sign": (None, ("exact_sign",)),
    },
    "linalg": {
        "mat_det": ("Mat", ("det",)),
        "mat_inv": ("Mat", ("inv",)),
        "matmul": ("Mat", ("__matmul__",)),
        "rref": (None, ("rref",)),
        "hnf": (None, ("hnf",)),
        "integer_kernel": (None, ("integer_kernel",)),
        "solve_rational": (None, ("solve_rational",)),
    },
    "torus": {name: (None, (name,)) for name in (
        "build_torus", "attach_multiplication", "sqrt_d_basis_lattice")},
    "endo": {name: (None, (name,)) for name in (
        "compute_endo_ring", "classify_algebra", "rosati_involution",
        "symmetric_subspace", "find_real_multiplication")},
    "neronseveri": {name: (None, (name,)) for name in (
        "lambda_inverse", "lambda_values", "canonical_form_matrix", "e_table",
        "transport_to_diagonal", "compute_ns", "compute_N_D",
        "hermitian_lift", "polarization_search", "is_algebraic")},
    "papercheck": {name: (None, (name,)) for name in (
        "verify_proposition", "verify_corollaries")},
    "cli": {
        "parse_input": (None, ("parse_input",)),
        "realize": ("TorusDocument", ("realize",)),
        "run_command": (None, ("run_command",)),
    },
}

#: operators called thousands of times per task: counts only, no spans
HOT = {"exactfield.mul", "exactfield.div", "exactfield.add",
       "exactfield.conjugate", "exactfield.imag_part",
       "linalg.mat_det", "linalg.mat_inv", "linalg.matmul"}

#: unlisted functions that still get a span, so that claim times cover
#: every stage that verify_proposition runs
SPAN_ONLY = {"neronseveri.choose_sqrt_basis"}

#: verify_proposition stage -> the claim it serves; a claim's time is the
#: sum of the spans of its stages directly under verify_proposition
CLAIM_OF = {
    "neronseveri.compute_ns": "nd-rank-2",
    "neronseveri.compute_N_D": "nd-rank-2",
    "neronseveri.polarization_search": "definiteness",
    "neronseveri.transport_to_diagonal": "definiteness",
    "neronseveri.choose_sqrt_basis": "e-table",
    "neronseveri.e_table": "e-table",
    "neronseveri.lambda_inverse": "lambda-roundtrip",
    "neronseveri.lambda_values": "lambda-roundtrip",
}
CLAIMS = ("nd-rank-2", "definiteness", "e-table", "lambda-roundtrip")

#: Left unwrapped because a wrapper would cost more than the call, which
#: runs hundreds of thousands of times per task and never leaves its
#: module; the few microseconds each takes count for the calling frame.
UNWRAPPED_METHODS = {"__init__", "__post_init__", "__eq__", "__hash__",
                     "__getitem__", "__repr__", "__setattr__", "__delattr__"}
UNWRAPPED = {"exactfield._field_data", "exactfield.FieldElement._pair",
             "exactfield.FieldElement.is_zero", "exactfield.FieldElement.is_rational",
             "exactfield.NumberField.zero", "exactfield.NumberField.one",
             "exactfield.NumberField.rational"}
_VERIFY_SPAN = "papercheck.verify_proposition"


def listed_keys():
    return [f"{mod}.{name}" for mod in MODULES for name in LISTED[mod]]


class Tracer:
    """Call counts, self times and spans for one process."""

    def __init__(self):
        self.calls = {key: 0 for key in listed_keys()}
        self.self_s = {key: 0.0 for key in listed_keys()}
        self.module_s = {mod: 0.0 for mod in MODULES}
        self.claim_s = {claim: 0.0 for claim in CLAIMS}
        self.spans = []          # (id, name, start, end, parent id, task)
        self._stack = []         # frames: [module, listed child s, other-module child s]
        self._open = []          # open spans: (id, name)
        self._next_span = 0
        self.task = None

    # -- spans: tasks (opened by the benchmark) and stage functions ---------

    def begin(self, name):
        sid = self._next_span
        self._next_span += 1
        parent = self._open[-1][0] if self._open else None
        self._open.append((sid, name))
        return sid, parent, time.perf_counter()

    def end(self, token):
        sid, parent, start = token
        stop = time.perf_counter()
        _, name = self._open.pop()
        self.spans.append((sid, name, start, stop, parent, self.task))
        if self._open and self._open[-1][1] == _VERIFY_SPAN:
            claim = CLAIM_OF.get(name)
            if claim is not None:
                self.claim_s[claim] += stop - start

    # -- wrappers -----------------------------------------------------------

    def wrap(self, module, key, fn, span):
        stack = self._stack
        clock = time.perf_counter
        module_s = self.module_s
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [module, 0.0, 0.0]
            stack.append(frame)
            token = self.begin(span) if span else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                if token is not None:
                    self.end(token)
                stack.pop()
                parent = stack[-1] if stack else None
                if key is not None:
                    calls[key] += 1
                    self_s[key] += elapsed - frame[1]
                    if parent is not None:
                        parent[1] += elapsed
                elif parent is not None:
                    parent[1] += frame[1]
                if parent is None or parent[0] != module:
                    module_s[module] += elapsed - frame[2]
                    if parent is not None:
                        parent[2] += elapsed
                else:
                    parent[2] += frame[2]

        return traced

    def install(self):
        """Wrap every function and method of the loaded toruslab modules.

        Call once per process, after the workload's imports.
        """
        mods = {name: sys.modules[f"toruslab.{name}"] for name in MODULES
                if f"toruslab.{name}" in sys.modules}
        listed = {}
        for mod, entries in LISTED.items():
            for metric, (cls, attrs) in entries.items():
                for attr in attrs:
                    listed[(mod, cls, attr)] = f"{mod}.{metric}"
        replaced = {}

        def wrapper_for(mod, cls, attr, fn):
            if fn not in replaced:
                key = listed.get((mod, cls, attr))
                name = f"{mod}.{attr}"
                span = key or name
                if (key in HOT) or (key is None and name not in SPAN_ONLY):
                    span = None
                replaced[fn] = self.wrap(mod, key, fn, span)
            return replaced[fn]

        for mod, module in mods.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    if f"{mod}.{attr}" not in UNWRAPPED:
                        wrapper_for(mod, None, attr, obj)
                elif isinstance(obj, type):
                    for cattr, cobj in list(vars(obj).items()):
                        kind = type(cobj) if isinstance(cobj, (staticmethod, classmethod)) else None
                        raw = cobj.__func__ if kind else cobj
                        if (isinstance(raw, types.FunctionType)
                                and cattr not in UNWRAPPED_METHODS
                                and f"{mod}.{obj.__name__}.{cattr}" not in UNWRAPPED):
                            w = wrapper_for(mod, obj.__name__, cattr, raw)
                            setattr(obj, cattr, kind(w) if kind else w)
        for module in sys.modules.values():
            name = getattr(module, "__name__", "")
            if name != "toruslab" and not name.startswith("toruslab."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(module, attr, replaced[obj])

    # -- results --------------------------------------------------------------

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "module_s": dict(self.module_s), "claim_s": dict(self.claim_s)}



def write_spans(path, spans):
    """One JSON object per span and line."""
    with open(path, "w", encoding="utf-8") as f:
        for sid, name, start, stop, parent, task in spans:
            f.write(json.dumps({"id": sid, "name": name, "start": start,
                                "end": stop, "parent": parent, "task": task}) + "\n")


def merge(total, part):
    """Add one snapshot into another (children of the cli-cold workload)."""
    for section in ("calls", "self_s", "module_s", "claim_s"):
        for key, value in part[section].items():
            total[section][key] = total[section].get(key, 0) + value
    return total


def empty_snapshot():
    return Tracer().snapshot()


def per_layer_metrics(snap, tasks, import_s):
    """Flatten a snapshot into the per-layer metric dictionary."""
    out = {}
    for key in listed_keys():
        out[f"{key}.calls"] = (snap["calls"][key], "count")
        out[f"{key}.self_s"] = (snap["self_s"][key], "s")
    for key in ("exactfield.mul", "exactfield.div"):
        n = snap["calls"][key]
        out[f"{key}.mean_us"] = (snap["self_s"][key] / n * 1e6 if n else 0.0, "us")
    for key in ("neronseveri.compute_ns", "neronseveri.polarization_search"):
        out[f"{key}.calls_per_task"] = (snap["calls"][key] / tasks, "1/task")
    for mod in MODULES:
        out[f"{mod}.self_s"] = (snap["module_s"][mod], "s")
    for claim in CLAIMS:
        out[f"claim.{claim}.s"] = (snap["claim_s"][claim], "s")
    out["cli.import_s"] = (import_s, "s")
    return out
