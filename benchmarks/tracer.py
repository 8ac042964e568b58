"""Outside-in span tracer for the infconv benchmark.

The tracer never edits the package.  It wraps, for the duration of a
``with Tracer(...)`` block, the module attributes through which one infconv
module calls another: every plain function that a consumer module
(``sharing``, ``cli``, ``oracle``) imported from a different infconv module.
The names are read from the consumer's namespace when the block starts, so a
function added later (for example a future ``net.value_and_grad``) is traced
without edits here, and a function that disappears is simply absent: the
summary reports every name in ``EXPECTED`` with zero calls when it never ran.

Two intra-module boundaries are wrapped on purpose, because the metrics need
them: ``sharing.batch_loss_and_cotangents`` (one training step's loss) and
``cli.write_report_files`` (report writing).  The benchmark's own calls into
the public API go through ``Tracer.api``, which returns the wrapped function
while tracing and the original function otherwise.

Spans stay in memory and are summarized (or dumped) after the run.
Leaving the block restores every patched attribute to the object it held
before, even when the block raised.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("measures", "sampling", "net", "optim", "sharing", "analytic", "oracle", "cli")
CONSUMERS = ("sharing", "cli", "oracle")
INNER = (("sharing", "batch_loss_and_cotangents"), ("cli", "write_report_files"))

# Cross-module names the consumers import at the seed commit.  Only used to
# report names that stopped being called (or stopped existing) with zero calls.
EXPECTED = (
    "measures.empirical", "measures.eval_with_grad", "measures.evaluate",
    "measures.parse_risk_spec", "measures.render_risk_spec",
    "measures.sorted_tail_weights", "measures.spectral_order_weights",
    "net.forward", "net.backward", "net.grad_list", "net.init_mlp", "net.param_list",
    "net.set_params",
    "optim.adam_step", "optim.init_adam", "optim.init_plateau", "optim.plateau_step",
    "oracle.brute_force_infconv", "oracle.build_knots",
    "sampling.draw", "sampling.make_generator", "sampling.parse_distribution",
    "sampling.render_distribution", "sampling.stratified_sample", "sampling.support",
    "sampling.wasserstein_p",
    "analytic.analytic_allocation", "analytic.analytic_infconv",
    "sharing.l2_error", "sharing.pair_loss", "sharing.train_ensemble",
    "sharing.batch_loss_and_cotangents", "cli.write_report_files",
)


def _layer_of(func) -> str | None:
    module = getattr(func, "__module__", "") or ""
    if not module.startswith("infconv."):
        return None
    layer = module.split(".")[1]
    return layer if layer in LAYERS else None


def cross_module_functions(consumer) -> dict[str, str]:
    """Attribute name -> "layer.function" for functions a module imported from
    another infconv module.  Classes are left alone so isinstance still works."""
    found = {}
    for name, obj in vars(consumer).items():
        if not inspect.isfunction(obj):
            continue
        layer = _layer_of(obj)
        if layer is None or obj.__module__ == consumer.__name__:
            continue
        found[name] = f"{layer}.{obj.__name__}"
    return found


def _fingerprint(arr) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


def _mlp_fingerprint(mlp) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for w, b in zip(mlp.weights, mlp.biases):
        h.update(np.ascontiguousarray(w).tobytes())
        h.update(np.ascontiguousarray(b).tobytes())
    return h.digest()


def _is_mlp(obj) -> bool:
    return hasattr(obj, "widths") and hasattr(obj, "weights") and hasattr(obj, "biases")


def _dense_madds(mlp, n: int) -> int:
    widths = mlp.widths
    return n * sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def has_entropic(spec) -> bool:
    """True when a risk spec contains an entropic term (the oracle's exp path)."""
    if type(spec).__name__ == "Entropic":
        return True
    terms = getattr(spec, "terms", None)
    return bool(terms) and any(has_entropic(term) for _, term in terms)


@dataclass
class Span:
    job: int
    ident: int
    parent: int  # 0 for a root span
    name: str  # "layer.function"
    start: float
    end: float = 0.0
    error: bool = False
    size: int = 0  # batch length for net calls
    path: str = ""  # oracle solve path: "linear" or "entropic"


@dataclass
class Tracer:
    """Context manager that records spans at infconv's module boundaries."""

    job: int = 0  # stamped on every span, so spans of one job share it
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    forward_keys: set = field(default_factory=set)
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for short in CONSUMERS:
                module = importlib.import_module(f"infconv.{short}")
                for attr, qualname in cross_module_functions(module).items():
                    self._patch(module, attr, qualname)
            for short, attr in INNER:
                module = importlib.import_module(f"infconv.{short}")
                if inspect.isfunction(getattr(module, attr, None)):
                    self._patch(module, attr, f"{short}.{attr}")
        except BaseException:
            self._restore()
            raise
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        self.active = False

    def _patch(self, module, attr: str, qualname: str) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(original, qualname))

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def api(self, func):
        """The function to call from benchmark code: wrapped only while tracing."""
        if not self.active:
            return func
        layer = _layer_of(func)
        if layer is None:
            return func
        return self._wrap(func, f"{layer}.{func.__name__}")

    # -- spans ----------------------------------------------------------------

    def _wrap(self, func, qualname: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(
                job=tracer.job, ident=len(tracer.spans) + 1,
                parent=tracer._stack[-1] if tracer._stack else 0,
                name=qualname, start=0.0,
            )
            tracer._note_call(span, args)
            tracer.spans.append(span)
            tracer._stack.append(span.ident)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._note_result(span, result)
            return result

        return traced

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def _note_call(self, span: Span, args) -> None:
        layer, _, fname = span.name.partition(".")
        if layer == "net" and len(args) >= 2 and _is_mlp(args[0]) and isinstance(args[1], np.ndarray):
            mlp, xs = args[0], args[1]
            span.size = int(xs.shape[0])
            dense = _dense_madds(mlp, span.size)
            if fname == "forward":
                self._count("net.madds", dense)
                self._count("net.forward_calls", 1)
                self.forward_keys.add((_mlp_fingerprint(mlp), _fingerprint(xs)))
            else:
                # a gradient pass: forward recompute plus two products per layer
                self._count("net.madds", 3 * dense)
        elif span.name == "oracle.brute_force_infconv" and len(args) >= 2:
            span.path = "entropic" if (has_entropic(args[0]) or has_entropic(args[1])) else "linear"
        elif span.name == "sharing.batch_loss_and_cotangents":
            self._count("sharing.steps", 1)

    def _note_result(self, span: Span, result) -> None:
        if span.name == "oracle.brute_force_infconv":
            self._count("oracle.candidates", getattr(result, "evaluations", 0))

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {s.ident: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent:
                own[s.parent] -= s.end - s.start
        return own

    def by_function(self) -> dict[str, dict[str, float]]:
        """Per "layer.function": calls, errors, inclusive and self seconds.

        Every name in EXPECTED appears, with zero calls when it never ran.
        """
        own = self.self_times()
        table = {name: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0} for name in EXPECTED}
        for s in self.spans:
            row = table.setdefault(s.name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["errors"] += int(s.error)
            row["total_s"] += s.end - s.start
            row["self_s"] += own[s.ident]
        return table

    def dump(self) -> dict:
        """Spans as rows under one header, ready for json."""
        fields = list(Span.__dataclass_fields__)
        return {"fields": fields, "rows": [[getattr(s, f) for f in fields] for s in self.spans]}
