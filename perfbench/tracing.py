"""Spans around the public names each specden layer exposes.

``Tracer.install`` replaces module attributes and two operator methods with
wrappers that record a span (id, parent id, name, start, end, ok, info);
``uninstall`` restores the originals, so untraced calls run the program
unchanged.  Spans stay in memory until the call returns.
"""

from __future__ import annotations

import functools
import re
from collections import defaultdict
from time import perf_counter

from specden import block_krylov, metrics, moment_matching, operators, sde

ID, PARENT, NAME, START, END, OK, INFO = range(7)


def product_cost(op):
    """(matrix bytes read, flops) of one product with op, from array sizes."""
    n = op.dimension
    if isinstance(op, operators.DenseOperator):
        return 8 * n * n, 2 * n * n
    if isinstance(op, operators.SparseOperator):
        m = op.matrix
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes, 2 * m.nnz
    if isinstance(op, operators.DiagonalOperator):
        return 8 * n, n
    if isinstance(op, operators.ScaledOperator):
        nbytes, flops = product_cost(op.base)
        return nbytes, flops + n
    if isinstance(op, operators.DeflatedOperator):
        # Two projections v - Z (Z^T v), each reading Z twice.
        nbytes, flops = product_cost(op.base)
        s = op.Z.shape[1]
        return nbytes + 32 * n * s, flops + 2 * (4 * n * s + n)
    raise TypeError(f"no cost model for {type(op).__name__}")


def _apply_info(args, kwargs, result):
    return product_cost(args[0])


def _apply_block_info(args, kwargs, result):
    nbytes, flops = product_cost(args[0])
    cols = args[1].shape[1]
    return cols, nbytes * cols, flops * cols


def _lanczos_info(args, kwargs, result):
    # (n, m requested, m effective); reorthogonalization ran at every step
    # that produced a new basis vector or detected breakdown.
    return args[0].dimension, args[2], result.m_effective


def _moments_info(args, kwargs, result):
    return args[1]


def _deflation_info(args, kwargs, result):
    A, l = args[0], args[1]
    q = kwargs.get("q", args[2] if len(args) > 2 else None)
    if q is None:
        q = block_krylov.default_depth(A.dimension)
    return l, q, result.candidates_examined, result.s


# (owner, attribute, span name, info function): the names sde imports that do
# work, the block-Krylov and LP internals below them, the two operator
# entry points, and DiscreteDistribution construction.
TARGETS = (
    (sde, "run", "sde.run", None),
    (sde, "lanczos", "lanczos.lanczos", _lanczos_info),
    (sde, "tridiag_eig", "lanczos.tridiag_eig", None),
    (sde, "unit_sphere_vector", "randgen.unit_sphere_vector", None),
    (sde, "estimate_moments", "chebyshev.estimate_moments", _moments_info),
    (sde, "adjust_moments_for_deflation", "chebyshev.adjust_moments", None),
    (sde, "spectral_norm_upper_bound", "operators.norm_estimate", None),
    (sde, "deflate", "operators.deflate", None),
    (sde, "solve_moment_matching", "moment_matching.solve", None),
    (sde, "kpm_density", "moment_matching.kpm_density", None),
    (sde, "rescale_density", "moment_matching.rescale_density", None),
    (sde, "block_krylov_deflation", "block_krylov.deflation", _deflation_info),
    (sde, "average_densities", "metrics.average_densities", None),
    (block_krylov, "build_krylov_block", "block_krylov.build", None),
    (block_krylov, "orthonormalize_columns", "block_krylov.orthonormalize", None),
    (block_krylov, "spectral_norm_upper_bound", "operators.norm_estimate", None),
    (moment_matching, "moment_matrix", "moment_matching.moment_matrix", None),
    (metrics, "wasserstein1", "metrics.wasserstein1", None),
    (metrics.DiscreteDistribution, "__post_init__", "metrics.distribution", None),
    (operators.SymmetricOperator, "apply", "operators.apply", _apply_info),
    (operators.SymmetricOperator, "apply_block", "operators.apply_block", _apply_block_info),
)

# Function name -> span name, to name the layers in a stack dump.
SPAN_OF_FUNCTION = {
    getattr(owner, attr).__name__: name
    for owner, attr, name, _ in TARGETS
    if attr != "__post_init__"
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0
        self._saved = []

    def reset(self):
        spans, self.spans, self._next = self.spans, [], 0
        return spans

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            ok, result = False, None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                extra = info(args, kwargs, result) if info and ok else None
                self.spans.append((sid, parent, name, start, end, ok, extra))

        return traced

    def install(self):
        for owner, attr, name, info in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, info))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layers_in_stack_dump(text):
    """Span names of the specden frames in a faulthandler dump, outermost first."""
    functions = re.findall(r'File "[^"]*specden[^"]*", line \d+ in (\w+)', text)
    return [SPAN_OF_FUNCTION[f] for f in reversed(functions) if f in SPAN_OF_FUNCTION]


def self_times(spans):
    """Per-span self seconds: duration minus the durations of direct children."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return {s[ID]: s[END] - s[START] - child[s[ID]] for s in spans}


def layer_metrics(call_spans, passes):
    """Per-layer metrics from the span lists of traced calls, per traced pass.

    Spans marked cut (their call was stopped at the deadline) count as calls
    and failures but carry no time.
    """
    total = defaultdict(float)  # summed duration by span name
    own = defaultdict(float)  # summed self time by span name
    count = defaultdict(int)
    failed = defaultdict(int)
    n_bytes = flops = apply_cols = reorth_flops = 0
    m_req = m_eff = n_moments = examined = admitted = krylov_cols = 0
    for spans in call_spans:
        own_by_id = self_times(spans)
        for s in spans:
            name, extra = s[NAME], s[INFO]
            count[name] += 1
            if not s[OK]:
                failed[name] += 1
            if extra == "cut":
                continue
            total[name] += s[END] - s[START]
            own[name] += own_by_id[s[ID]]
            if extra is None:
                continue
            if name == "operators.apply":
                n_bytes += extra[0]
                flops += extra[1]
            elif name == "operators.apply_block":
                apply_cols += extra[0]
                n_bytes += extra[1]
                flops += extra[2]
            elif name == "lanczos.lanczos":
                n, m, m_e = extra
                m_req += m
                m_eff += m_e
                steps = m_e if m_e < m else m_e - 1
                reorth_flops += sum(8 * n * i + 2 * n for i in range(1, steps + 1))
            elif name == "chebyshev.estimate_moments":
                n_moments += extra
            elif name == "block_krylov.deflation":
                l, q, r, s_kept = extra
                krylov_cols += l * (q + 1)
                examined += r
                admitted += s_kept

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "operators.apply.calls": per_pass(count["operators.apply"]),
        "operators.apply.self_s": per_pass(own["operators.apply"]),
        "operators.apply_block.cols": per_pass(apply_cols),
        "operators.apply_block.self_s": per_pass(own["operators.apply_block"]),
        "operators.norm_estimate.s": per_pass(total["operators.norm_estimate"]),
        "operators.bytes_computed": per_pass(n_bytes),
        "operators.flop_per_byte_computed": ratio(flops, n_bytes),
        "lanczos.calls": per_pass(count["lanczos.lanczos"]),
        "lanczos.self_s": per_pass(own["lanczos.lanczos"]),
        "lanczos.m_effective_ratio": ratio(m_eff, m_req),
        "lanczos.reorth_flops_computed": per_pass(reorth_flops),
        "lanczos.tridiag_eig.s": per_pass(total["lanczos.tridiag_eig"]),
        "chebyshev.estimate_moments.self_s": per_pass(own["chebyshev.estimate_moments"]),
        "chebyshev.moments_N": ratio(n_moments, count["chebyshev.estimate_moments"]),
        "moment_matching.solve.calls": per_pass(count["moment_matching.solve"]),
        "moment_matching.solve.self_s": per_pass(own["moment_matching.solve"]),
        "moment_matching.solve.failed": per_pass(failed["moment_matching.solve"]),
        "moment_matching.moment_matrix.s": per_pass(total["moment_matching.moment_matrix"]),
        "moment_matching.kpm_density.s": per_pass(total["moment_matching.kpm_density"]),
        "block_krylov.deflation.self_s": per_pass(own["block_krylov.deflation"]),
        "block_krylov.build.s": per_pass(total["block_krylov.build"]),
        "block_krylov.orthonormalize.s": per_pass(total["block_krylov.orthonormalize"]),
        "block_krylov.rank_kept_ratio": ratio(examined, krylov_cols),
        "block_krylov.admitted_ratio": ratio(admitted, examined),
        "block_krylov.deflated": per_pass(admitted),
        "metrics.distribution.self_s": per_pass(own["metrics.distribution"]),
        "metrics.average_densities.s": per_pass(total["metrics.average_densities"]),
        "metrics.wasserstein1.s": per_pass(total["metrics.wasserstein1"]),
        "sde.run.self_s": per_pass(own["sde.run"]),
    }
