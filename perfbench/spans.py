"""Spans recorded from outside respfd, around calls into its public functions.

`Tracer.install()` replaces each traced function, in every respfd module
namespace that holds it, with a wrapper that records a span (name, start,
end, parent, op id) and, when asked, the sizes of what the call returned.
`uninstall()` puts the originals back, so the untraced runs of the same
process measure the unmodified program.  Spans stay in memory; self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from fractions import Fraction

import respfd
import respfd.chains
import respfd.cli
import respfd.exponential
import respfd.io
import respfd.linalg
import respfd.pfd
import respfd.polynomials

from timeouts import OpTimeout

# Module-scoped per-layer metrics, each named after the module whose public
# function it times.  `cli.front` times parser construction and argument
# parsing; `cli.verify` is verification_report, reported as self time.
SPANS = {
    (respfd.io, "parse_matrix"): "io.parse",
    (respfd.linalg, "faddeev_leverrier"): "linalg.charpoly_adj",
    (respfd.polynomials, "factor_charpoly"): "polynomials.factor",
    (respfd.pfd, "pfd_residue"): "pfd.residue",
    (respfd.pfd, "pfd_undetermined"): "pfd.undetermined",
    (respfd.pfd, "pfd_real"): "pfd.real",
    (respfd.pfd, "verify_pfd"): "pfd.verify",
    (respfd.pfd, "verify_real_pfd"): "pfd.verify",
    (respfd.exponential, "exp_from_pfd"): "exponential.closed_form",
    (respfd.exponential, "exp_eval"): "exponential.eval",
    (respfd.exponential, "numeric_oracle_exp"): "exponential.oracle",
    (respfd.chains, "extract_column_chains"): "chains.extract",
    (respfd.chains, "select_chain_basis"): "chains.select",
    (respfd.cli, "verification_report"): "cli.verify",
}
RENDERERS = ("render_charpoly", "render_pfd", "render_chains", "render_exp",
             "render_solve", "render_general", "render_verify")
TIMED = ("cli.front", "cli.verify", "io.parse", "io.render", "linalg.charpoly_adj",
         "polynomials.factor", "pfd.residue", "pfd.undetermined", "pfd.real", "pfd.verify",
         "exponential.closed_form", "exponential.apply", "exponential.eval",
         "exponential.oracle", "chains.extract", "chains.select")


def scalar_bits(x) -> int:
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return max(scalar_bits(x.re), scalar_bits(x.im))  # GaussianRational


def matrix_bits(m) -> int:
    return max((scalar_bits(x) for row in m.rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # [op, name, parent index, start, end]
        self.stack = []
        self.op = None
        self.sizes = defaultdict(int)  # max bit lengths, sums of counts
        self.measure_sizes = False
        self.sizing_s = 0.0  # time spent measuring sizes in the current op
        self.sizing_total = 0.0  # ... in the whole run, inside "op" spans
        self._swaps = self._plan()

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.op, name, parent, time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, idx: int, timed_out: bool = False) -> None:
        self.spans[idx][4] = time.perf_counter()
        self.stack.pop()
        if timed_out and self.spans[idx][1] == "polynomials.factor":
            self.count("polynomials.timeouts")

    def count(self, key: str, value: int = 1) -> None:
        if self.measure_sizes:
            self.sizes[key] += value

    def size(self, key: str, fn) -> None:
        """Record max(bits) computed by fn(), off the clock of the op."""
        if not self.measure_sizes:
            return
        idx = self.begin("trace.sizing")  # a child span: off its parent's self time
        self.sizes[key] = max(self.sizes[key], fn())
        self.end(idx)
        spent = self.spans[idx][4] - self.spans[idx][3]
        self.sizing_s += spent
        self.sizing_total += spent

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            timed_out = False
            try:
                result = fn(*args, **kwargs)
            except OpTimeout:
                timed_out = True
                raise
            except respfd.IncompleteBasis:
                if name == "chains.select":
                    tracer.count("chains.incomplete")
                raise
            finally:
                tracer.end(idx, timed_out)
            tracer.after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def after(self, name: str, args, result) -> None:
        if not self.measure_sizes:
            return
        if name == "linalg.charpoly_adj":
            self.size("linalg.adj_bits", lambda: max(
                (matrix_bits(m) for m in result[1].coeff_matrices), default=0))
        elif name == "polynomials.factor":
            self.count("polynomials.factor_calls")
            self.size("polynomials.c0_bits", lambda: scalar_bits(args[0].coeff(0)))
        elif name in ("pfd.residue", "pfd.undetermined", "pfd.real"):
            self.size("pfd.b_bits", lambda: _pfd_bits(result))
        elif name == "exponential.closed_form":
            self.count("exponential.cf_closed_forms")
            self.count("exponential.cf_terms", len(result.terms))
            self.size("exponential.cf_bits", lambda: max(
                (matrix_bits(c) for _, c in result.terms), default=0))
        elif name == "io.render":
            self.count("io.out_bytes", len(result.encode()))

    def close_open(self) -> None:
        """End spans left open by a timeout that fired inside the tracer."""
        now = time.perf_counter()
        for span in self.spans:
            if span[4] is None:
                span[4] = now
        self.stack.clear()

    # -- installing ----------------------------------------------------------

    def _plan(self) -> list:
        """(namespace, attribute, original, wrapper) for every reference to patch."""
        wanted = {}
        for (module, attr), name in SPANS.items():
            wanted[id(getattr(module, attr))] = (getattr(module, attr), name)
        for attr in RENDERERS:
            fn = getattr(respfd.io, attr)
            wanted[id(fn)] = (fn, "io.render")
        wrappers = {key: self.wrap(fn, name) for key, (fn, name) in wanted.items()}
        swaps = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "respfd" and not mod_name.startswith("respfd."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and value is wanted[id(value)][0]:
                    swaps.append((module, attr, value, wrappers[id(value)]))
        cls = respfd.exponential.ClosedFormExp
        swaps.append((cls, "apply_to", cls.apply_to, self.wrap(cls.apply_to, "exponential.apply")))
        build = respfd.cli.build_parser
        swaps.append((respfd.cli, "build_parser", build, self._front(build)))
        return swaps

    def _front(self, build_parser):
        tracer = self

        def traced_build():
            idx = tracer.begin("cli.front")
            try:
                parser = build_parser()
            finally:
                tracer.end(idx)
            parse_args = parser.parse_args

            def traced_parse(*args, **kwargs):
                idx = tracer.begin("cli.front")
                try:
                    return parse_args(*args, **kwargs)
                finally:
                    tracer.end(idx)

            parser.parse_args = traced_parse
            return parser

        return traced_build

    def install(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict, float, float]:
        """(self seconds per span name, op seconds, unattributed op seconds)."""
        child = [0.0] * len(self.spans)
        for op, name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        op_total = unattributed = 0.0
        for idx, (op, name, parent, start, end) in enumerate(self.spans):
            own = end - start - child[idx]
            if name == "op":
                op_total += end - start
                unattributed += own
            else:
                out[name] += own
        return out, op_total, unattributed


def _pfd_bits(pfd) -> int:
    mats = []
    for term in getattr(pfd, "terms", ()) or getattr(pfd, "linear", ()):
        mats.extend(term.coefficients)
    for quad in getattr(pfd, "quadratic", ()):
        mats.extend((quad.p_matrix, quad.q_matrix))
    return max((matrix_bits(m) for m in mats), default=0)


def layer_metrics(tracer: Tracer, traced_ops: int, traced_s: float, untraced_s: float) -> dict:
    """The per_layer metrics of BENCHMARK.json from one traced run."""
    own, op_total, unattributed = tracer.self_times()
    op_total -= tracer.sizing_total
    per_op = max(traced_ops, 1)
    metrics = {f"{name}_ms": (1000 * own.get(name, 0.0) / per_op, "ms") for name in TIMED}
    metrics["cli.verify_self_ms"] = metrics.pop("cli.verify_ms")
    s = tracer.sizes
    factored = max(s["polynomials.factor_ops"], 1)
    metrics.update({
        "io.out_bytes": (s["io.out_bytes"] / max(s["ops"], 1), "bytes"),
        "linalg.adj_bits": (s["linalg.adj_bits"], "bits"),
        "polynomials.factor_calls": (s["polynomials.factor_calls"] / factored, "count"),
        "polynomials.c0_bits": (s["polynomials.c0_bits"], "bits"),
        "polynomials.timeouts": (s["polynomials.timeouts"], "count"),
        "pfd.b_bits": (s["pfd.b_bits"], "bits"),
        "exponential.cf_terms": (s["exponential.cf_terms"] / max(s["exponential.cf_closed_forms"], 1), "count"),
        "exponential.cf_bits": (s["exponential.cf_bits"], "bits"),
        "chains.incomplete": (s["chains.incomplete"], "count"),
        "trace.overhead_frac": ((traced_s - untraced_s) / untraced_s if untraced_s else 0.0, "frac"),
        "trace.unattributed_frac": (unattributed / op_total if op_total else 0.0, "frac"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
