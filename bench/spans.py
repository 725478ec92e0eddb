"""Layer spans for the traced run, recorded from outside the program.

Each layer is a module of ``src/puiseux``; its entry points (below) are
replaced, in every ``puiseux`` module that holds a reference to them, by a
wrapper that records a span when the call crosses into the layer from
another one.  A call made from inside the same layer (``iter_primes``
calling ``nth_prime``, ``canonical_fg`` calling ``canonicalize``) adds no
span: its time stays in the enclosing span of that layer.  Spans are kept
in memory and written out after the run.

Work counts are taken at the same entry points on every call:

* ``families.canonicalize_calls``: calls of ``canonicalize``;
* ``numerical.residues``: the modulus of every residue table built, read
  from the ``NumericalMonoid`` after construction and from the modulus
  passed to ``apery_set`` when it differs from the multiplicity;
* ``numerical.bitmask_bits``: the bound passed to ``reachable_bitmask``;
* ``oracle.elements``: elements in the enumeration an outermost oracle
  call returns;
* ``sequences.factorize_calls``: calls of ``factorize``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

LAYERS = {
    "cli": ["main"],
    "families": [
        "loads_spec",
        "canonicalize",
        "canonical_fg",
        "spec_member",
        "prime_reciprocal_solutions",
        "generator_stream",
    ],
    "numerical": ["NumericalMonoid.__init__", "NumericalMonoid.apery_set", "reachable_bitmask"],
    "factorizations": ["atoms", "factorizations", "length_set"],
    "oracle": ["lattice_enumeration", "enumerate_monoid"],
    "density": ["classify_density", "probe_density", "right_isolation"],
    "closures": [
        "difference_group",
        "root_closure",
        "ClosureDescription.generators",
        "gp_density",
        "conductor",
    ],
    "sequences": ["nth_prime", "factorize", "dense_atom_entries"],
}

WORK_COUNTS = (
    "families.canonicalize_calls",
    "numerical.residues",
    "numerical.bitmask_bits",
    "oracle.elements",
    "sequences.factorize_calls",
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, layer, start_ns, end_ns, parent, query)
        self.counts: Counter = Counter()
        self.query = -1
        self._open: list[int] = []
        self._layer = None
        self._restore: list[tuple[object, str, object]] = []

    # -- counting hooks: before(args, kwargs), after(args, kwargs, result, outermost)

    def _hooks(self, qualname):
        c = self.counts
        if qualname == "canonicalize":
            return lambda a, k: c.update(("families.canonicalize_calls",)), None
        if qualname == "factorize":
            return lambda a, k: c.update(("sequences.factorize_calls",)), None
        if qualname == "reachable_bitmask":
            return lambda a, k: c.update({"numerical.bitmask_bits": _arg(a, k, 1, "bound")}), None
        if qualname == "NumericalMonoid.__init__":
            return None, lambda a, k, r, outer: c.update({"numerical.residues": a[0].multiplicity})

        if qualname == "NumericalMonoid.apery_set":
            def after(a, k, r, outer):
                modulus = _arg(a, k, 1, "modulus")
                if modulus is not None and modulus != a[0].multiplicity:
                    c.update({"numerical.residues": modulus})

            return None, after
        if qualname in ("lattice_enumeration", "enumerate_monoid"):
            def after(a, k, r, outer):
                if outer and r is not None:
                    n = r.count if hasattr(r, "mask") else len(r.elements)
                    c.update({"oracle.elements": n})

            return None, after
        return None, None

    def _wrap(self, layer, qualname, fn):
        before, after = self._hooks(qualname)
        spans, opened = self.spans, self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if self._layer == layer:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, False)
                return result
            index = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else -1
            opened.append(index)
            outer_layer, self._layer = self._layer, layer
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                self._layer = outer_layer
                spans[index] = (qualname, layer, start, end, parent, self.query)
            if after is not None:
                after(args, kwargs, result, True)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "puiseux" or name.startswith("puiseux.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"puiseux.{layer}")
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    fn = cls.__dict__[attr]
                    self._restore.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(layer, qualname, fn))
                    continue
                fn = getattr(home, qualname)
                wrapper = self._wrap(layer, qualname, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, key, fn))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """<layer>.calls, <layer>.self_ms and the work counts."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for i, (name, layer, start, end, parent, _) in enumerate(self.spans):
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[i]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6
        for name in WORK_COUNTS:
            out[name] = self.counts[name]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
