"""Span and counter tracing installed from outside the package.

The package imports its helpers with ``from .x import y``, so a function is
replaced in every ``orbitpoisson`` module that binds it, and methods are
replaced on their class. Nothing under ``src/`` is changed.

A span records (name, start, end, parent span, job id). Spans stay in memory
until the run ends. Hot helpers (``roots.add``, ``bracket_index`` and the
scalar arithmetic) only count calls, because a span per call would cost more
than the work it measures.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Per-layer metric: (how it is reduced, the span or counter it reads, the
# end-to-end metric and workload it should move). Units are in BENCHMARK.json.
# Reductions, all per pass of the job list except "setup", which is per session:
#   incl    seconds in the span, children included (median over traced passes)
#   self    seconds in the span minus its child spans (median over passes)
#   setup   seconds in the span during the traced session set-up
#   calls   number of spans of that name
#   count   a counter of Tracer.counts
#   ratio   (numerator counter, denominator counter)
#   overhead  traced minus untraced pass time
PER_LAYER = {
    "roots.build_s": ("setup", "roots.build", "setup_s"),
    "roots.add_calls": ("count", "roots.add_calls", "job_p50_s on classify_atlas"),
    "chevalley.build_s": ("setup", "chevalley.build", "setup_s on classify_atlas"),
    "chevalley.bracket_index_calls": ("count", "chevalley.bracket_index_calls",
                                      "wall_s on cohomology_*"),
    "levi.type_s": ("incl", "levi.type", "job_tail_s on classify_atlas"),
    "levi.type_calls": ("calls", "levi.type", "job_tail_s on classify_atlas"),
    "levi.build_s": ("incl", "levi.build", "job_p50_s on classify_atlas"),
    "levi.build_calls": ("calls", "levi.build", "job_p50_s on classify_atlas"),
    "levi.pairs_s": ("incl", "levi.pairs", "job_p50_s on classify_atlas"),
    "levi.pairs_calls": ("calls", "levi.pairs", "job_p50_s on classify_atlas"),
    "brackets.witness_s": ("incl", "brackets.witness", "job_p50_s on classify_atlas"),
    "brackets.verify_s": ("incl", "brackets.verify", "wall_s on classify_atlas"),
    "brackets.verify_calls": ("calls", "brackets.verify", "wall_s on classify_atlas"),
    "brackets.classify_self_s": ("self", "brackets.classify", "recorded only"),
    "brackets.solve_self_s": ("self", "brackets.solve", "recorded only"),
    "brackets.realize_s": ("incl", "brackets.realize", "recorded only"),
    "multivec.schouten_s": ("incl", "multivec.schouten",
                            "wall_s and job_p50_s on cohomology_*; wall_s on classify_atlas"),
    "multivec.schouten_calls": ("calls", "multivec.schouten", "wall_s on cohomology_*"),
    "multivec.schouten_pairs": ("count", "multivec.schouten_pairs", "wall_s on cohomology_*"),
    "multivec.schouten_terms_out": ("count", "multivec.schouten_terms_out",
                                    "wall_s on cohomology_*"),
    "multivec.project_keep_ratio": ("ratio", ("multivec.project_kept", "multivec.project_in"),
                                    "wall_s on cohomology_*"),
    "multivec.project_s": ("incl", "multivec.project", "recorded only"),
    "multivec.phi_s": ("setup", "multivec.phi", "setup_s"),
    "multivec.ad_action_s": ("incl", "multivec.ad_action", "recorded only"),
    "invariants.monomials": ("count", "invariants.monomials", "wall_s on cohomology_*"),
    "invariants.basis_dim": ("count", "invariants.basis_dim", "wall_s on cohomology_*"),
    "invariants.basis_s": ("self", "invariants.basis", "wall_s on cohomology_*"),
    "invariants.delta_s": ("self", "invariants.delta",
                           "wall_s and peak_rss_mb on cohomology_*"),
    "invariants.delta_density": ("ratio", ("invariants.delta_nnz", "invariants.delta_stored"),
                                 "wall_s and peak_rss_mb on cohomology_*"),
    "invariants.betti_self_s": ("self", "invariants.betti", "job_tail_s on cohomology_real"),
    "invariants.oracle_s": ("incl", "invariants.oracle", "recorded only"),
    "linalg.rank_s": ("incl", "linalg.rank", "job_tail_s on cohomology_real"),
    "linalg.rank_calls": ("calls", "linalg.rank", "job_tail_s on cohomology_real"),
    "linalg.rank_nnz": ("count", "linalg.rank_nnz", "job_tail_s on cohomology_real"),
    "linalg.kernel_s": ("incl", "linalg.kernel", "wall_s on cohomology_*"),
    "linalg.span_build_s": ("incl", "linalg.span_build", "wall_s on cohomology_*"),
    "linalg.express_s": ("incl", "linalg.express", "wall_s on cohomology_*"),
    "linalg.express_calls": ("calls", "linalg.express", "wall_s on cohomology_*"),
    "scalars.ops": ("count", "scalars.ops",
                    "wall_s on cohomology_gaussian relative to cohomology_real"),
    "scalars.complex_frac": ("ratio", ("scalars.complex_ops", "scalars.ops"),
                             "wall_s on cohomology_gaussian relative to cohomology_real"),
    "trace.overhead_s": ("overhead", None, "traced minus untraced pass wall time"),
}

# Every counter the wrappers below increment.
_COUNTERS = ("roots.add_calls", "chevalley.bracket_index_calls", "multivec.schouten_pairs",
             "multivec.schouten_terms_out", "multivec.project_in", "multivec.project_kept",
             "invariants.monomials", "invariants.basis_dim", "invariants.delta_nnz",
             "invariants.delta_stored", "linalg.rank_nnz", "scalars.ops",
             "scalars.complex_ops")

_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self._stack: list[int] = []
        self.job = None
        # Running totals; a pass's counts are the difference of two snapshots.
        self.counts: dict[str, int] = dict.fromkeys(_COUNTERS, 0)

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(counts, args, result) runs on return."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.job])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][2] = clock()
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, op) -> None:
        """Wrap the package's layer boundaries; ``op`` is the imported package."""
        mods = {name: m for name, m in sys.modules.items()
                if name == "orbitpoisson" or name.startswith("orbitpoisson.")}
        roots, levi, brackets = mods["orbitpoisson.roots"], mods["orbitpoisson.levi"], \
            mods["orbitpoisson.brackets"]
        multivec, invariants = mods["orbitpoisson.multivec"], mods["orbitpoisson.invariants"]
        linalg = mods["orbitpoisson.linalg"]

        def rebind(original, replacement):
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, replacement)

        def spanned(name, fn, after=None):
            rebind(fn, self.span(name, fn, after))

        rebind(roots.add, self.counted("roots.add_calls", roots.add))
        spanned("roots.build", roots.build_root_system)
        spanned("chevalley.build", op.build_chevalley_basis)
        cls = op.ChevalleyBasis
        cls.bracket_index = self.counted("chevalley.bracket_index_calls", cls.bracket_index)

        spanned("levi.build", levi.build_levi)
        spanned("levi.type", levi.quasiroot_system_type)
        spanned("levi.pairs", levi.admissible_pairs)

        spanned("brackets.classify", brackets.classify_good)
        spanned("brackets.solve", brackets.solve_compatible)
        spanned("brackets.witness", brackets.find_inconsistency_witness)
        spanned("brackets.verify", brackets.verify_square)
        spanned("brackets.verify", brackets.verify_compatible)
        spanned("brackets.realize", brackets.realize)

        spanned("multivec.schouten", multivec.schouten, _after_schouten)
        spanned("multivec.project", multivec.project_to_m, _after_project)
        spanned("multivec.phi", multivec.phi)
        spanned("multivec.ad_action", multivec.ad_action)

        spanned("invariants.basis", invariants.invariant_basis, _after_basis)
        rebind(invariants.weight_zero_monomials,
               _counting_result(self.counts, invariants.weight_zero_monomials))
        spanned("invariants.oracle", invariants.de_rham_betti)
        cx = op.InvariantComplex
        cx.delta_matrix = self.span("invariants.delta", cx.delta_matrix, _after_delta)
        cx.betti_numbers = self.span("invariants.betti", cx.betti_numbers)

        spanned("linalg.rank", linalg.rank_of, _after_rank)
        spanned("linalg.kernel", linalg.kernel_basis)
        solver = linalg.SpanSolver
        solver.__init__ = self.span("linalg.span_build", solver.__init__)
        solver.express = self.span("linalg.express", solver.express)

        self._count_scalar_ops(op.GaussianRational)

    def _count_scalar_ops(self, cls) -> None:
        counts = self.counts
        for attr in _SCALAR_OPS:
            def make(original):
                def op(self, *other):
                    counts["scalars.ops"] += 1
                    if self.im or (other and isinstance(other[0], cls) and other[0].im):
                        counts["scalars.complex_ops"] += 1
                    return original(self, *other)
                return op
            setattr(cls, attr, make(getattr(cls, attr)))

    # -- reduction --------------------------------------------------------

    def durations(self, first: int = 0):
        """(name, duration, self time) of the spans recorded since index
        ``first``; all must be closed."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, job in spans:
            if parent is not None and parent >= first:
                child[parent - first] += end - start
        return [(s[0], s[2] - s[1], s[2] - s[1] - c) for s, c in zip(spans, child)]


def _after_schouten(counts, args, result):
    _, u, v = args[:3]
    counts["multivec.schouten_pairs"] += len(u) * len(v)
    counts["multivec.schouten_terms_out"] += len(result)


def _after_project(counts, args, result):
    counts["multivec.project_in"] += len(args[0])
    counts["multivec.project_kept"] += len(result)


def _after_rank(counts, args, result):
    # every caller passes a list of sparse rows, which rank_of leaves intact
    counts["linalg.rank_nnz"] += sum(len(row) for row in args[0])


def _after_basis(counts, args, result):
    counts["invariants.basis_dim"] += len(result)


def _after_delta(counts, args, cols):
    for col in cols:
        counts["invariants.delta_stored"] += len(col)
        counts["invariants.delta_nnz"] += sum(1 for c in col if c)


def _counting_result(counts, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        counts["invariants.monomials"] += len(result)
        return result
    return wrapper


def layer_metrics(pass_spans, setup_spans, pass_counts, overhead_s):
    """Per-layer metrics from the traced passes, keyed like PER_LAYER.

    pass_spans: one list of durations() tuples per traced pass; times are the
    median over passes. setup_spans: durations() of the traced set-up.
    pass_counts: the counters of one traced pass, with "spans.<name>" the
    number of spans of each name.
    """
    def per_pass(span, col):
        return statistics.median(sum(t[col] for t in spans if t[0] == span)
                                 for spans in pass_spans)

    out = {}
    for metric, (how, source, _) in PER_LAYER.items():
        if how == "incl":
            out[metric] = per_pass(source, 1)
        elif how == "self":
            out[metric] = per_pass(source, 2)
        elif how == "setup":
            out[metric] = sum(d for n, d, _ in setup_spans if n == source)
        elif how == "calls":
            out[metric] = pass_counts.get(f"spans.{source}", 0)
        elif how == "count":
            out[metric] = pass_counts[source]
        elif how == "ratio":
            num, den = (pass_counts[c] for c in source)
            out[metric] = num / den if den else 0.0
        else:
            out[metric] = overhead_s
    return out
