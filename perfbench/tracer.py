"""Per-layer tracing of the package from outside it.

``install()`` replaces the public functions of every package module with
wrappers, in each module that binds them (``from .x import f`` bindings
included), and wraps the ``Echelon`` methods on the class.  Functions called
more than a few thousand times per sweep only count their calls, keyed by
the innermost open span; every other function records a span (id, parent,
name, start, end) in memory.  The package itself is not modified on disk.

Layers are the package modules; a span's layer is the module that defines
the function.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import types
from collections import Counter, defaultdict
from math import factorial
from pathlib import Path
from time import perf_counter

LAYERS = ("core", "descent", "parking", "ribbon", "symfunc", "polynomial", "linalg", "tanisaki", "cli")

# Called more than about 5000 times in some sweep: a span each would cost more
# than the call, so these only count.
HOT = {
    "core.value_blocks", "core.is_shuffle", "core.is_reverse_shuffle", "core.is_permutation",
    "polynomial.apply_permutation", "polynomial.scale", "polynomial.add", "polynomial.mul_monomial",
    "polynomial.total_degree", "polynomial.monomial", "polynomial.homogeneous_components",
    "linalg.clear_denominators",
    "descent.descent_key", "descent.descent_compositions", "descent.majt", "descent.runs",
    "descent.majt_inverse", "descent.maj", "descent.descent_set", "descent.restrict",
    "ribbon.is_minimal", "ribbon.ribbon_fillings", "ribbon.dinv", "ribbon.dinv_pairs", "ribbon.doff",
    "ribbon.height_vector", "ribbon.heights", "ribbon.area", "ribbon.reading_word",
    "ribbon.is_valid_ribbon", "ribbon.component_sizes", "ribbon.is_valid", "ribbon.to_json_dict",
    "ribbon.algorithm_sequence",
    "parking.block_ranges", "parking.dinv", "parking.dinv_pairs", "parking.doff", "parking.check_valid",
    "parking.is_valid", "parking.touches", "parking.to_json_dict",
}

ECHELON_METHODS = ("add_row", "add_rows", "reduce", "contains")

# name -> (unit, what it is).  Times are self times.  Counts and ratios are
# exact and must repeat between two traced sweeps of one seed.
METRICS = {
    "linalg.add_row.s": ("s", "self time of Echelon.add_row"),
    "linalg.add_row.calls": ("count", "Echelon.add_row calls"),
    "linalg.rank_gain_ratio": ("ratio", "rows that raised the rank / rows inserted"),
    "linalg.pivot_nnz": ("count", "nonzeros in all stored pivot rows"),
    "linalg.max_coeff_bits": ("bits", "largest coefficient in a stored pivot row"),
    "linalg.reduce.s": ("s", "self time of Echelon.reduce"),
    "linalg.reduce.calls": ("count", "Echelon.reduce calls"),
    "tanisaki.verify_descent_basis.s": ("s", "self time of verify_descent_basis"),
    "tanisaki.verify_parabolic_basis.s": ("s", "self time of verify_parabolic_basis"),
    "tanisaki.verify_phi_injective.s": ("s", "self time of verify_phi_injective"),
    "tanisaki.self_s": ("s", "self time of all tanisaki spans"),
    "polynomial.antisymmetrize.s": ("s", "self time of antisymmetrize"),
    "polynomial.antisymmetrize.calls": ("count", "antisymmetrize calls"),
    "polynomial.elementary_symmetric.s": ("s", "self time of elementary_symmetric"),
    "polynomial.mul_monomial.calls": ("count", "mul_monomial calls"),
    "descent.descent_compositions_lambda.s": ("s", "self time of descent_compositions_lambda"),
    "descent.dlam_kept_ratio": (
        "ratio",
        "|D_lam| / (|OSP(lam)| * prod |D_lam_i|) over computed (cache-missing) calls; "
        "the denominator is n!, the candidates the shuffle construction scans",
    ),
    "descent.j_maj.s": ("s", "self time of j_maj"),
    "descent.majt_inverse.calls": ("count", "majt_inverse calls"),
    "symfunc.self_s": ("s", "self time of all symfunc spans"),
    "core.is_shuffle.calls": ("count", "is_shuffle calls made from symfunc"),
    "core.is_reverse_shuffle.calls": ("count", "is_reverse_shuffle calls made from symfunc"),
    "ribbon.minimal_ribbon_tuples.s": ("s", "self time of minimal_ribbon_tuples"),
    "ribbon.minimal_kept_ratio": ("ratio", "minimal tuples / tuples scanned by minimal_ribbon_tuples"),
    "ribbon.reconstruct.s": ("s", "self time of reconstruct"),
    "ribbon.algorithm_tableau.s": ("s", "self time of algorithm_tableau"),
    "parking.minimal_parking_functions.s": ("s", "self time of minimal_parking_functions"),
    "parking.pf0_kept_ratio": (
        "ratio",
        "kept / touch-constrained candidates scanned by minimal_parking_functions",
    ),
    "parking.doff.calls": ("count", "parking.doff calls"),
    "parking.dinv.calls": ("count", "parking.dinv calls"),
    "core.ordered_set_partitions.s": ("s", "self time of ordered_set_partitions"),
    "cli.self_s": ("s", "self time of all cli spans: parsing, JSON encoding, printing"),
    "cli.bytes_out": ("count", "bytes the CLI wrote to standard output"),
    "cli.lines_out": ("count", "lines the CLI wrote to standard output"),
    "trace.spans": ("count", "spans recorded in the sweep"),
    "trace.coverage": ("ratio", "share of the traced wall time covered by top-level spans"),
    "trace.wall_s": ("s", "wall_s of the traced sweep"),
}

EXACT = [name for name, (unit, _) in METRICS.items() if unit != "s" and name != "trace.coverage"]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.stack: list[list] = []
        self.calls: Counter = Counter()  # (innermost span name, callee) -> calls
        self.tally: Counter = Counter()
        self.max_coeff_bits = 0

    def span(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1][0] if stack else None, name, perf_counter(), 0.0]
            spans.append(record)
            stack.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()

        return wrapper

    def count(self, name: str, fn):
        calls, stack = self.calls, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[stack[-1][2] if stack else "", name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_items(self, name: str, fn):
        """For generator functions: count the call and every item yielded."""
        calls, stack = self.calls, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][2] if stack else ""
            calls[caller, name] += 1
            for item in fn(*args, **kwargs):
                calls[caller, name + ".items"] += 1
                yield item

        return wrapper

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self.count_items(name, fn)
        wrapped = self.count(name, fn) if name in HOT else self.span(name, fn)
        hook = {
            "linalg.add_row": self._pivot_stored,
            "descent.descent_compositions_lambda": self._family_built,
            "ribbon.minimal_ribbon_tuples": self._minimal_found,
            "parking.minimal_parking_functions": self._parking_kept,
        }.get(name)
        if hook is None:
            return wrapped

        @functools.wraps(fn)
        def accounted(*args, **kwargs):
            misses = fn.cache_info().misses if hasattr(fn, "cache_info") else None
            result = wrapped(*args, **kwargs)
            hook(args, result, misses is None or fn.cache_info().misses > misses)
            return result

        return accounted

    # Accounting after a call returns, outside the callee's span, so it does not
    # count as the callee's time.  ``computed`` is false for an lru_cache hit.

    def _pivot_stored(self, args, grew, computed):
        if grew:
            pivot = next(reversed(args[0].pivot_rows.values()))
            self.tally["rank_gains"] += 1
            self.tally["pivot_nnz"] += len(pivot)
            bits = max(abs(value).bit_length() for value in pivot.values())
            self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def _family_built(self, args, family, computed):
        if computed:
            self.tally["dlam_kept"] += len(family)
            self.tally["dlam_candidates"] += factorial(sum(args[0]))

    def _minimal_found(self, args, tuples, computed):
        if computed:
            self.tally["minimal_kept"] += len(tuples)

    def _parking_kept(self, args, kept, computed):
        self.tally["pf0_kept"] += len(kept)

    def layer_metrics(self, wall: float, bytes_out: int, lines_out: int) -> dict[str, float]:
        covered = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            covered[parent] += end - start
        self_by_name = Counter()
        for span_id, _, name, start, end in self.spans:
            self_by_name[name] += end - start - covered[span_id]
        self_by_layer = Counter()
        for name, seconds in self_by_name.items():
            self_by_layer[name.split(".")[0]] += seconds
        calls_by_name = Counter()
        from_symfunc = Counter()
        for (caller, name), n in self.calls.items():
            calls_by_name[name] += n
            if caller.startswith("symfunc."):
                from_symfunc[name] += n
        for _, _, name, _, _ in self.spans:
            calls_by_name[name] += 1
        t = self.tally
        metrics = {
            "linalg.add_row.calls": calls_by_name["linalg.add_row"],
            "linalg.rank_gain_ratio": _ratio(t["rank_gains"], calls_by_name["linalg.add_row"]),
            "linalg.pivot_nnz": t["pivot_nnz"],
            "linalg.max_coeff_bits": self.max_coeff_bits,
            "linalg.reduce.calls": calls_by_name["linalg.reduce"],
            "tanisaki.self_s": self_by_layer["tanisaki"],
            "polynomial.antisymmetrize.calls": calls_by_name["polynomial.antisymmetrize"],
            "polynomial.mul_monomial.calls": calls_by_name["polynomial.mul_monomial"],
            "descent.dlam_kept_ratio": _ratio(t["dlam_kept"], t["dlam_candidates"]),
            "descent.majt_inverse.calls": calls_by_name["descent.majt_inverse"],
            "symfunc.self_s": self_by_layer["symfunc"],
            "core.is_shuffle.calls": from_symfunc["core.is_shuffle"],
            "core.is_reverse_shuffle.calls": from_symfunc["core.is_reverse_shuffle"],
            "ribbon.minimal_kept_ratio": _ratio(
                t["minimal_kept"],
                self.calls["ribbon.minimal_ribbon_tuples", "ribbon.ribbon_tuples.items"],
            ),
            "parking.pf0_kept_ratio": _ratio(
                t["pf0_kept"],
                self.calls["parking.minimal_parking_functions", "parking.parking_functions_alpha.items"],
            ),
            "parking.doff.calls": calls_by_name["parking.doff"],
            "parking.dinv.calls": calls_by_name["parking.dinv"],
            "cli.self_s": self_by_layer["cli"],
            "cli.bytes_out": bytes_out,
            "cli.lines_out": lines_out,
            "trace.spans": len(self.spans),
            "trace.coverage": covered[None] / wall,
            "trace.wall_s": wall,
        }
        for name in METRICS:
            if name.endswith(".s"):
                metrics[name] = self_by_name[name[: -len(".s")]]
        return {name: metrics[name] for name in METRICS}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end}) + "\n")


def install() -> Tracer:
    """Wrap the package's public functions and Echelon methods; return the tracer."""
    tracer = Tracer()
    wrappers: dict[int, object] = {}
    modules = [importlib.import_module("gpdescent")]
    modules += [importlib.import_module(f"gpdescent.{layer}") for layer in LAYERS]
    for module in modules:
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not (isinstance(fn, types.FunctionType) or hasattr(fn, "cache_info")):
                continue
            if not getattr(fn, "__module__", "").startswith("gpdescent."):
                continue
            if id(fn) not in wrappers:
                name = f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
                wrappers[id(fn)] = tracer.wrap(name, fn)
            setattr(module, attr, wrappers[id(fn)])
    echelon = importlib.import_module("gpdescent.linalg").Echelon
    for method in ECHELON_METHODS:
        setattr(echelon, method, tracer.wrap(f"linalg.{method}", getattr(echelon, method)))
    return tracer
