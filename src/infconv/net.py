"""Small dense feed-forward networks with hand-written backpropagation.

Scalar-in scalar-out networks evaluated on batches.  All arithmetic is
float64 and every parameter lives in one flat vector; forward and
value_and_grad are pure functions of it, so two identical calls give
bit-identical results.

Activations are stored feature-major, as (width, rows) arrays, so the batch
axis is the contiguous one, and each ends in a row of ones, so a layer's bias
is the last column of its weight matrix and each layer's forward is one
matrix product and its activation.  Layers are narrow and batches long
(widths of 8 to 100 against 1000 rows), so every bias-gradient sum runs along
a long contiguous row; weight gradients are the products delta @ a.T.

One pass implementation, _Stack, runs k networks of one shape at once, over
a leading stack axis, writing into buffers it allocates once for a batch
length; its pullback writes each delta over the activation it replaces, so
it takes one pullback per forward.  forward and value_and_grad are its k = 1
case; the training loop in ``sharing`` runs a member's two networks as
k = 2, with the bits of two separate passes.

forward evaluates in fixed blocks of 1024 rows, each thread reusing one set
of block buffers, so its memory does not grow with the layer width times the
batch size, and splits long batches' blocks over threads; value_and_grad
keeps every activation of its batch for the pullback.  The rule that sizes
those threads also sizes the ensemble's member threads in ``sharing``.

forward and training (in ``sharing``) hold numpy's OpenBLAS at one thread,
so no output bit depends on the host's CPU count or its BLAS variables.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import json
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sampling import RngSeed, make_generator

__all__ = [
    "ACTIVATIONS",
    "Mlp",
    "init_mlp",
    "forward",
    "value_and_grad",
    "mlp_to_json",
    "mlp_from_json",
]

ACTIVATIONS = ("linear", "relu", "tanh")

# Rows per block of an evaluation pass: a (100, 1024) float64 activation is
# 800 KB, so a block's activations stay in cache.  Blocks start at row 0 and
# have a fixed size, so the split, and with it every output bit, depends on
# the batch alone.
_BLOCK_ROWS = 1024

# Work splits over threads only when rows per numpy call times the widest layer
# reaches this, so that each call runs long outside the GIL.  On 2 CPUs with
# 1 BLAS thread and feature-major activations, 3 members on batches of 1000
# sorted rows took, as a median of 5 to 7 concurrent/serial ratios, 1.58x
# the serial time at 8,000 (width 8), 1.40x at 16,000 and 1.17x at 24,000 on
# an entropic pair, and 1.59x, 1.15x and 1.02x on a spectral pair; at 32,768
# (batch 1024, width 32) they took 0.89x and 0.82x.
_PARALLEL_MIN_WORK = 2**15


def _size(widths: tuple[int, ...]) -> int:
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(widths[:-1], widths[1:]))


def _layers(flat: np.ndarray, widths: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) views into a vector laid out W0, b0, W1, b1, ...

    A (k, size) array of k such vectors gives (k, fan_out, fan_in) weights and
    (k, fan_out) biases."""
    out = []
    start = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        w = flat[..., start : start + fan_out * fan_in].reshape(*flat.shape[:-1], fan_out, fan_in)
        start += fan_out * fan_in
        out.append((w, flat[..., start : start + fan_out]))
        start += fan_out
    return out


@dataclass
class Mlp:
    """Alternating affine maps and activations; no activation after the last map.

    ``params`` holds every parameter in one float64 vector: W0 (row-major),
    b0, W1, b1, ...  weights[i], of shape (widths[i+1], widths[i]), and
    biases[i], of shape (widths[i+1],), are views into it.  Passes never
    mutate it; an update replaces ``params`` wholesale and needs exclusive
    access.
    """

    widths: tuple[int, ...]
    activation: str
    params: np.ndarray

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.widths)
        if len(widths) < 2:
            raise ValueError("need at least one affine map (two widths)")
        if any(w < 1 for w in widths):
            raise ValueError(f"widths must be positive, got {widths}")
        if widths[0] != 1 or widths[-1] != 1:
            raise ValueError("networks map scalars to scalars: first and last width must be 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        params = np.asarray(self.params, dtype=np.float64)
        size = _size(widths)
        if params.shape != (size,):
            raise ValueError(f"widths {widths} need {size} parameters, got shape {params.shape}")
        self.widths = widths
        self.params = params

    @property
    def weights(self) -> list[np.ndarray]:
        return [w for w, _ in _layers(self.params, self.widths)]

    @property
    def biases(self) -> list[np.ndarray]:
        return [b for _, b in _layers(self.params, self.widths)]


def init_mlp(widths: tuple[int, ...], activation: str, rng: RngSeed) -> Mlp:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    gen = make_generator(rng)
    widths = tuple(int(w) for w in widths)
    params = np.zeros(_size(widths))
    for w, _ in _layers(params, widths):
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = gen.uniform(-bound, bound, size=w.shape)
    return Mlp(widths=widths, activation=activation, params=params)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """Apply the activation to z in place and return z."""
    if activation == "relu":
        np.maximum(z, 0.0, out=z)
    elif activation == "tanh":
        np.tanh(z, out=z)
    return z


def _derivative(a: np.ndarray, activation: str, out: np.ndarray) -> None:
    """The activation's derivative from its output a, into out (bool for relu)."""
    if activation == "relu":
        np.greater(a, 0.0, out=out)  # derivative at 0 is 0
    elif activation == "tanh":
        np.multiply(a, a, out=out)
        np.subtract(1.0, out, out=out)


class _Stack:
    """Passes of k networks of one shape, stacked along a leading axis, over
    buffers sized for batches of up to ``rows`` rows.

    ``params`` holds the k parameter vectors back to back; each layer's
    weights and biases are (k, fan_out, fan_in) and (k, fan_out) views into
    it, so new values written into ``params`` are the stack's next weights.
    Each forward copies them into one (k, fan_out, fan_in + 1) matrix [W | b]
    per layer, and every layer input ends in a row of ones: the batch sits in
    a (2, rows) buffer over a ones row, each hidden activation in a
    (k, width + 1, rows) buffer with its ones row last.  So a layer is one
    matrix product into its activation buffer, then its activation in place.

    Every buffer is allocated here once.  A batch of n rows uses the head of
    each, shaped (k, width + 1, n): the layout of a fresh array, so every
    product and sum gives the bits of k separate passes.  ``pullback``
    writes each delta over the activation it replaces, so it consumes its
    forward.  Values and gradients are views into these buffers.

    A backward product with one inner term (fan-out 1) is a copy and an
    in-place broadcast multiply: the bits of the K=1 matrix product, and
    cheaper than it or one broadcast multiply into the buffer.
    """

    def __init__(self, params: np.ndarray, k: int, widths: tuple[int, ...], activation: str,
                 rows: int, grad: bool = True):
        size = _size(widths)
        self.widths = widths
        self.activation = activation
        self._layers = _layers(params.reshape(k, size), widths)
        self._folded = [np.empty((k, w.shape[1], w.shape[2] + 1)) for w, _ in self._layers]
        self._inputs = [np.empty((2, rows)), *(np.empty((k, w + 1, rows)) for w in widths[1:-1])]
        self._values = np.empty((k, 1, rows))
        self._delta = self._scratch = None
        if grad:
            self.grad = np.empty(k * size)
            self._grads = _layers(self.grad.reshape(k, size), widths)
            self._delta = np.empty((k, 1, rows))  # the top delta, beside the values
            if activation != "linear" and len(widths) > 2:
                # relu's mask as bools: multiplying by them is the cheaper pass at width 64
                dtype = bool if activation == "relu" else np.float64
                self._scratch = np.empty((k, max(widths[1:-1]), rows), dtype=dtype)
        self._views: dict[int, tuple] = {}
        self._last: tuple = ()
        self._ones = 0  # the batch length whose ones rows the buffers hold

    def _sized(self, n: int) -> tuple:
        """Views of every buffer for a batch of n rows, built on first use."""
        views = self._views.get(n)
        if views is None:

            def head(buf: np.ndarray | None, *shape: int) -> np.ndarray | None:
                return None if buf is None else buf.reshape(-1)[: math.prod(shape)].reshape(shape)

            k = self._values.shape[0]
            inputs = [head(buf, *buf.shape[:-1], n) for buf in self._inputs]
            # each layer's output, above its ones row
            outs = [a[:, :-1] for a in inputs[1:]] + [head(self._values, k, 1, n)]
            scratch = [head(self._scratch, k, width, n) for width in self.widths[1:-1]]
            views = self._views[n] = (inputs, outs, head(self._delta, k, 1, n), scratch)
        return views

    def forward(self, xs: np.ndarray) -> np.ndarray:
        """The k networks' values on a 1-d batch of n <= ``rows`` rows, as a
        (k, n) view; keeps every activation for one ``pullback``."""
        self._last = inputs, outs, _, _ = self._sized(xs.size)
        for (w, b), folded in zip(self._layers, self._folded):
            folded[..., :-1] = w
            folded[..., -1] = b
        # a batch of another length has its ones rows elsewhere; nothing else
        # writes them, so one length keeps them across passes
        if self._ones != xs.size:
            for a in inputs:
                a[..., -1, :] = 1.0
            self._ones = xs.size
        inputs[0][0] = xs
        last = len(outs) - 1
        for i, (folded, a, z) in enumerate(zip(self._folded, inputs, outs)):
            np.matmul(folded, a, out=z)
            if i < last:
                _activate(z, self.activation)
        return outs[-1][:, 0, :]

    def pullback(self, upstream: Sequence[np.ndarray]) -> np.ndarray:
        """Gradient of sum_j upstream[j] @ values[j] for the last forward
        batch, flat in ``params`` order: a view of the stack's buffer.
        Overwrites the forward's activations, but not its values."""
        inputs, outs, delta, scratch = self._last
        self._last = ()
        for j, u in enumerate(upstream):
            delta[j, 0] = u
        for i in range(len(self._layers) - 1, -1, -1):
            grad_w, grad_b = self._grads[i]
            a = outs[i - 1] if i else inputs[0][:1]
            np.matmul(delta, np.swapaxes(a, -1, -2), out=grad_w)
            np.add.reduce(delta, axis=2, out=grad_b)
            if i > 0:
                tmp = scratch[i - 1]
                if tmp is not None:
                    _derivative(a, self.activation, tmp)
                w_t = self._layers[i][0].transpose(0, 2, 1)
                if w_t.shape[2] == 1:
                    a[...] = delta
                    a *= w_t
                else:
                    np.matmul(w_t, delta, out=a)
                if tmp is not None:
                    a *= tmp
                delta = a
        return self.grad


def _check_batch(xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError("input batch must be 1-d")
    if not np.all(np.isfinite(xs)):
        raise ValueError("input batch must be finite")
    return xs


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS numpy itself loaded,
    or None where numpy links another BLAS or has no ``numpy._core``."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


class _OneBlasThread:
    """Context manager that holds numpy's OpenBLAS at one thread.  Uses may
    overlap, on any thread: the first sets one thread, the last to leave
    restores the count the first found.  The count is process-wide, so other
    threads' BLAS calls run on one thread meanwhile.  Does nothing where
    _openblas finds no OpenBLAS."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._users = 0
        self._restore = 0

    def __enter__(self) -> None:
        blas = _openblas()
        if blas is not None:
            with self._lock:
                if not self._users:
                    self._restore = blas[0]()
                    blas[1](1)
                self._users += 1

    def __exit__(self, *exc_info: object) -> None:
        blas = _openblas()
        if blas is not None:
            with self._lock:
                self._users -= 1
                if not self._users:
                    blas[1](self._restore)


# One for the process, as the BLAS thread count it guards is one per process.
_one_blas_thread = _OneBlasThread()


def _workers(tasks: int, work: int) -> int:
    """Threads for ``tasks`` independent pieces whose numpy calls each do
    ``work`` (rows times the widest layer): min(tasks, usable CPUs) from
    _PARALLEL_MIN_WORK on, else 1.  _in_threads pins BLAS to one thread, so
    they do not oversubscribe the CPUs; where it cannot, 1."""
    if work < _PARALLEL_MIN_WORK or _openblas() is None:
        return 1
    return max(1, min(tasks, _usable_cpus()))


def _in_threads(work: Callable[[int], None], workers: int, name: str) -> None:
    """Run work(0) in the calling thread beside work(1), ..., work(workers - 1)
    on daemon helpers, and wait for the helpers, all with BLAS pinned to one
    thread (_one_blas_thread), at any worker count.

    Each helper runs in a copy of the caller's context, so numpy's errstate
    holds there too.  A helper's exception is raised here once all helpers
    have ended, the lowest worker's first; one from work(0) propagates at
    once, so an interrupted caller does not wait for the helpers, which keep
    the pin until they end.
    """
    failed: list[Exception | None] = [None] * workers

    def guarded(j: int) -> None:
        try:
            with _one_blas_thread:
                work(j)
        except Exception as exc:  # re-raised in the calling thread below
            failed[j] = exc

    helpers = [
        threading.Thread(
            target=contextvars.copy_context().run, args=(guarded, j),
            name=f"{name}-{j}", daemon=True,
        )
        for j in range(1, workers)
    ]
    with _one_blas_thread:
        for thread in helpers:
            thread.start()
        work(0)
        for thread in helpers:
            thread.join()
    for exc in failed:
        if exc is not None:
            raise exc


def forward(mlp: Mlp, xs: np.ndarray) -> np.ndarray:
    """Evaluate the network on a batch of scalars, keeping no activations.

    Rows go through every layer in blocks of _BLOCK_ROWS that start at row 0,
    so the live activations stay cache-sized however long the batch is; each
    thread reuses one set of block buffers.  A batch of two or more blocks
    at width 32 or more (the _workers rule) splits its blocks into
    contiguous runs, one per thread, all writing into one output.  The
    blocks do not move, so every output bit is the same as on one thread.
    The pass runs with BLAS pinned to one thread, so its bits do not depend
    on the host's BLAS thread count either.
    """
    xs = _check_batch(xs)
    out = np.empty_like(xs)
    starts = range(0, xs.size, _BLOCK_ROWS)
    workers = _workers(len(starts), _BLOCK_ROWS * max(mlp.widths))
    rows = min(xs.size, _BLOCK_ROWS)

    def run(j: int) -> None:
        stack = _Stack(mlp.params, 1, mlp.widths, mlp.activation, rows, grad=False)
        for start in starts[len(starts) * j // workers : len(starts) * (j + 1) // workers]:
            out[start : start + _BLOCK_ROWS] = stack.forward(xs[start : start + _BLOCK_ROWS])[0]

    _in_threads(run, workers, "infconv-forward")
    return out


def value_and_grad(
    mlp: Mlp, xs: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Network values on a batch and the pullback of one cached forward pass.

    ``pullback(upstream)`` returns the gradient of
    sum_i upstream[i] * values[i] with respect to ``mlp.params``, as one flat
    vector in ``params`` order.  It uses the parameters of this call, even if
    ``mlp.params`` is replaced in between, and may be called any number of
    times: each call after the first reruns the forward pass.
    """
    xs = _check_batch(xs)
    stack = _Stack(mlp.params, 1, mlp.widths, mlp.activation, xs.size)
    values = stack.forward(xs)[0]

    def pullback(upstream: np.ndarray) -> np.ndarray:
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != xs.shape:
            raise ValueError("upstream weights must match the input batch shape")
        if not stack._last:  # consumed by the previous pullback; rewrites the same values
            stack.forward(xs)
        return stack.pullback((upstream,)).copy()

    return values, pullback


def mlp_to_json(mlp: Mlp) -> str:
    """Flat JSON holding widths, activation and row-major parameters.

    Floats are written with the shortest round-trip representation, so a
    load reproduces the parameters bit for bit.
    """
    payload = {
        "widths": list(mlp.widths),
        "activation": mlp.activation,
        "weights": [w.ravel().tolist() for w in mlp.weights],
        "biases": [b.tolist() for b in mlp.biases],
    }
    return json.dumps(payload, sort_keys=True)


def mlp_from_json(text: str) -> Mlp:
    payload = json.loads(text)
    try:
        widths = tuple(int(w) for w in payload["widths"])
        activation = str(payload["activation"])
        weights, biases = payload["weights"], payload["biases"]
        if len(weights) != len(widths) - 1 or len(biases) != len(widths) - 1:
            raise ValueError("parameter lists must hold one entry per affine map")
        parts = []
        for i, (flat, bias) in enumerate(zip(weights, biases)):
            parts.append(np.asarray(flat, dtype=np.float64).reshape(widths[i + 1] * widths[i]))
            parts.append(np.asarray(bias, dtype=np.float64).reshape(widths[i + 1]))
        params = np.concatenate(parts)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed network JSON: {exc}") from exc
    return Mlp(widths=widths, activation=activation, params=params)
