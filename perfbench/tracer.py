"""Spans around the calls into each agcoh module's public functions.

The tracer patches the functions from outside: every namespace that binds
one (the defining module, the package root, and modules that imported it by
name, such as `spin.enumerate_parameters`) gets the same wrapper, and so do
operator aliases such as `__radd__ = __add__`.  A span records its name,
start, end, parent span and job id; spans stay in memory, in columns, until
`write` puts them in a file when the run ends.  Self time is a span's
duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, attribute path, metric prefix, optional work counter over the
# call's arguments and result).  Nothing that is slated for deletion
# (character_at_exponents, WeightSystem.full, set_cache_dir) is wrapped, so
# removing it does not break the benchmark.
TARGETS = [
    ("symplectic", "character_at_torsion", "symplectic.character_at_torsion", None),
    ("symplectic", "weight_multiplicities", "symplectic.weight_multiplicities", None),
    ("symplectic", "weyl_dimension", "symplectic.weyl_dimension", None),
    ("torsion", "elliptic_term", "torsion.elliptic_term",
     lambda args, result: {"torsion.classes": len(args[1].masses)}),
    ("torsion", "enumerate_torsion_classes", "torsion.enumerate_torsion_classes", None),
    ("torsion", "parse_mass_table", "torsion.parse_mass_table", None),
    ("exact", "LaurentPoly.__mul__", "exact.LaurentPoly.mul", None),
    ("exact", "LaurentPoly.__add__", "exact.LaurentPoly.add", None),
    ("exact", "cyclotomic", "exact.cyclotomic", None),
    ("arthur", "enumerate_parameters", "arthur.enumerate_parameters",
     lambda args, result: {"arthur.parameters": sum(m for _, m in result),
                           "arthur.shapes": len(result)}),
    ("spin", "ih_betti", "spin.ih_betti",
     lambda args, result: {"spin.variants": sum(len(r.variants) for r in result.per_shape)}),
    ("spin", "rho_psi", "spin.rho_psi", None),
    ("spin", "spin_character", "spin.spin_character", None),
    ("spin", "nu_decompose", "spin.nu_decompose", None),
    ("spin", "hodge_diamond", "spin.hodge_diamond", None),
    ("tautring", "RingElement.__mul__", "tautring.RingElement.mul", None),
    ("tautring", "monomial", "tautring.monomial", None),
    ("tautring", "pairing_matrix", "tautring.pairing_matrix", None),
    ("tautring", "matrix_rank", "tautring.matrix_rank", None),
    ("tautring", "quotient_by_top", "tautring.quotient_by_top", None),
    ("proportionality", "lambda_intersection", "proportionality.lambda_intersection", None),
    ("tables", "stable_series", "tables.stable_series", None),
    ("tables", "reference_table", "tables.reference_table", None),
    ("cli", "run", "cli.run", None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.col_name = array("i")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        self.col_job = array("i")
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.job = -1
        self.enabled = True
        self._open: list[int] = []       # span indices of the open calls
        self._child_ns: list[int] = []   # time covered by their direct children

    def install(self) -> None:
        """Wrap every target in every agcoh namespace that binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "agcoh" or name.startswith("agcoh."))]
        for module_name, attr_path, prefix, counter in TARGETS:
            module = importlib.import_module(f"agcoh.{module_name}")
            owner, _, attr = attr_path.rpartition(".")
            try:
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, attr)
            except AttributeError:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(prefix, original, counter)
            if owner:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
            else:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, name, fn, counter):
        code = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_ns[name] = 0
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.col_start)
            tracer.col_name.append(code)
            tracer.col_parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.col_job.append(tracer.job)
            tracer._open.append(index)
            tracer._child_ns.append(0)
            start = clock()
            tracer.col_start.append(start)
            tracer.col_end.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.col_end[index] = end
                tracer._open.pop()
                children = tracer._child_ns.pop()
                if tracer._child_ns:
                    tracer._child_ns[-1] += end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += end - start - children
            if counter is not None:
                for key, n in counter(args, result).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + n
            return result

        return wrapper

    def metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Calls, self times (multiplied by `time_scale`) and work counts."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6 * time_scale
        for _, _, prefix, _ in TARGETS:
            if prefix in self.missing:
                out[f"{prefix}.calls"] = 0
                out[f"{prefix}.self_ms"] = 0.0
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """All spans as TSV: name, start_ns, end_ns, parent index, job index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for i in range(len(self.col_start)):
                fh.write(f"{self.names[self.col_name[i]]}\t{self.col_start[i]}\t"
                         f"{self.col_end[i]}\t{self.col_parent[i]}\t{self.col_job[i]}\n")
