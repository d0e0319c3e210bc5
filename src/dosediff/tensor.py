"""Dense float64 tensors with reverse-mode automatic differentiation.

Small, CPU-only engine backed by numpy. Every differentiable operation
builds a node in an acyclic graph; calling :func:`backward` on a scalar
root and a list of leaves walks the graph once (graphs are single-use)
and returns the gradient of each leaf. A tensor holds no gradient.

The op catalog is exposed two ways: plain functions (``conv2d``,
``softmax``, ...) plus the table-driven :func:`forward_op` dispatcher
keyed by op name. The spatial ops (``conv2d``, ``upsample2``) take
channels-last [B, H, W, C] maps; ``layer_norm``, ``linear`` and
``matmul`` with a 2-D right operand act on the last axis, so they apply
per location. ``linear`` (``x @ w + b``) and ``conv2d`` with its
optional bias are one node each for an affine layer, bitwise equal to
the product followed by a separate bias ``add``. A stride-1 ``conv2d``
reads every kernel tap as a contiguous row slice of one flat zero-padded
copy of its input and sums the tap GEMMs one cache-sized block of rows
at a time, each tap added into the block's output by OpenBLAS's
``cblas_dgemm`` itself (beta = 1), bitwise numpy's product then ``+=``;
a stride-2 one of at least two such blocks does the same on a
space-to-depth copy; see :func:`conv2d` for what that means for bitwise
results and which products stay on numpy.
``window_attention`` is a fused op: the whole shifted-window multi-head
attention of a Swin block in one node, with a hand-written backward.
``conv_block`` is one too: a pre-norm conv residual block (layer norm,
ReLU, 3x3 conv, bias, time bias, residual) whose forward and gradients
are bitwise those of the composed chain of catalog ops. So is
``swin_block``: a whole Swin block (layer norm, window attention,
residual, time bias, layer norm, MLP with ReLU, residual), bitwise its
composed chain; it shares one layer-norm forward (``_layer_norm_fwd``)
with ``layer_norm`` and ``conv_block`` and one window-attention kernel
(``_window_attention``) with ``window_attention``. On maps larger than
one cache-sized block, layer norm (alone or fused), the window
attention (gather, projections, softmax, output projection, scatter, all
in one body per block of whole windows) and the Swin MLP run one block
at a time, bitwise the whole-array formulas.

Threads: importing this module pins OpenBLAS to one thread for the rest
of the process, whenever its thread API is found, and nothing undoes
it; all parallelism comes from whole blocks instead. Every blocked
kernel (the conv tap sums with their epilogue, forward and input
gradient, the phase copy of a stride-2 conv, layer norm, the window
attention, the Swin MLP) hands one helper, ``_split``, its list of
whole blocks (row slices, image and row pairs, phase indices) and the
body that runs one of them; ``_split`` deals the list in about eight
chunks to whichever of the calling thread and one persistent worker
thread is free, in a forward that builds a graph, in the backward
and under ``no_grad`` alike. No numpy or BLAS call changes shape, so
results are bitwise those of one thread, whatever the number of CPUs,
the worker and the dealing. They still depend on the CPU model and the
BLAS build, as OpenBLAS picks its kernels per CPU. The tap sums'
``cblas_dgemm`` calls go through ctypes, which releases the interpreter
lock as numpy does. The worker starts on the first list of at least two
blocks. On a single CPU every block runs in the calling thread; without
OpenBLAS's thread API nothing is pinned, BLAS keeps its own thread count
(and its bits) and the worker stays off.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import re
import queue
import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "UnknownOpError", "GraphConsumedError",
    "forward_op", "backward", "no_grad",
    "add", "mul", "smul", "matmul", "linear", "conv2d", "upsample2",
    "concat", "roll", "softmax", "relu", "gelu",
    "layer_norm", "conv_block", "swin_block", "mse_loss", "window_attention", "OP_NAMES",
]


class ShapeError(ValueError):
    """Raised when input shapes are invalid for an operation."""


class UnknownOpError(KeyError):
    """Raised by forward_op for an op kind that is not in the catalog."""


class GraphConsumedError(RuntimeError):
    """Raised when backward is invoked through an already-consumed graph."""


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Node:
    """Graph record: producing op, parent tensors, and the local backward."""

    __slots__ = ("kind", "parents", "bwd")

    def __init__(self, kind: str, parents: tuple, bwd: Callable):
        self.kind = kind
        self.parents = parents
        self.bwd = bwd  # grad_out -> tuple of parent grads; None once consumed


class Tensor:
    """N-dimensional float64 array, optionally tracked in an autodiff graph."""

    __slots__ = ("data", "node", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node: Optional[Node] = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def tracked(self) -> bool:
        return self.node is not None or self.requires_grad

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    # operator sugar; a scalar multiplier becomes a scalar-mul node
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return smul(self, float(other))
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape) -> "Tensor":
        return _reshape(self, tuple(shape))

    def permute(self, axes) -> "Tensor":
        return _permute(self, tuple(axes))

    def sum(self, axis=None) -> "Tensor":
        return _sum(self, axis)


def _graph_wanted(parents: Sequence[Tensor]) -> bool:
    """Whether ``_make`` will record a node, so the forward keeps backward state."""
    return _GRAD_ENABLED and any(p.tracked() for p in parents)


def _make(kind: str, out: np.ndarray, parents: Sequence[Tensor], bwd: Callable) -> Tensor:
    t = Tensor(out)
    if _graph_wanted(parents):
        t.node = Node(kind, tuple(parents), bwd)
    return t


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_op(kind: str, fn: np.ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    """fn(a, b) with numpy broadcasting; a broadcast failure is a ShapeError."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{kind}: shapes {a.shape} and {b.shape} "
                         f"are not broadcastable") from None


# elements per block of the row-blocked kernels (512 KB of float64), so
# that a block's temporaries stay in the L2 cache
_BLOCK_ELEMS = 65536

# layer-norm epsilon, shared by layer_norm and conv_block so the fused
# block keeps the composed chain's bits
_LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# one BLAS thread, and the block worker: a second thread for the blocked kernels


def _openblas(name: str):
    """The C function ``name`` (e.g. "set_num_threads", "cblas_dgemm") of
    the OpenBLAS that numpy loaded, or None: looked up among the process's
    mapped libraries (Linux) under the prefixes and suffixes of OpenBLAS
    builds (``scipy_openblas_set_num_threads64_``, ``scipy_cblas_dgemm64_``)."""
    try:
        with open("/proc/self/maps") as f:
            maps = f.read()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_", "scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}{name}{suffix}", None)
                if fn is not None:
                    return fn
    return None


_WORKER_NAME = "dosediff-blocks"     # the name of every block worker's thread


class _BlockWorker:
    """One daemon thread that runs the jobs ``_split`` hands it, one at a
    time. (``concurrent.futures`` would do, but its import costs every
    process about 9 ms and 0.7 MB.)"""

    def __init__(self):
        self.jobs = queue.SimpleQueue()
        threading.Thread(target=self._serve, name=_WORKER_NAME, daemon=True).start()

    def _serve(self):
        while True:
            run, done, error = self.jobs.get()
            try:
                run()
            except BaseException as exc:   # re-raised by the thread that waits
                error.append(exc)
            run = error = None             # hold no kernel's arrays until the next job
            done.set()

    def submit(self, run: Callable) -> Callable:
        """Queue run(); returns a wait() that blocks until it has run and
        returns the exception it raised, or None."""
        done, error = threading.Event(), []
        self.jobs.put((run, done, error))

        def wait():
            done.wait()
            return error[0] if error else None
        return wait


def _pin_blas() -> bool:
    """Set OpenBLAS to one thread for the rest of the process; whether its
    thread API was found."""
    set_threads = _openblas("set_num_threads")
    if set_threads is None:
        return False
    set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
    set_threads(1)
    return True


def _dgemm_binding():
    """OpenBLAS's ``cblas_dgemm`` with its argument types declared, or None
    where it or the build's integer width (``get_config``) is not found."""
    dgemm, config = _openblas("cblas_dgemm"), _openblas("get_config")
    if dgemm is None or config is None:
        return None
    config.argtypes, config.restype = (), ctypes.c_char_p
    n = ctypes.c_int64 if b"USE64BITINT" in config() else ctypes.c_int
    e, d, p = ctypes.c_int, ctypes.c_double, ctypes.c_void_p
    dgemm.argtypes = (e, e, e, n, n, n, d, p, n, p, n, d, p, n)
    dgemm.restype = None
    return dgemm


_BLAS_PINNED = _pin_blas()   # before the engine's first GEMM, never undone
_DGEMM = _dgemm_binding()    # called by _tap_sum alone
_WORKER = None               # the _BlockWorker once started; False where none can run


def _block_worker() -> Optional[_BlockWorker]:
    """The block worker, started on first use, or None on a single CPU or
    where OpenBLAS could not be pinned to one thread: a GEMM threaded by
    BLAS next to the worker made a paper-scale sample slower than no
    worker at all."""
    global _WORKER
    if _WORKER is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        _WORKER = _BlockWorker() if _BLAS_PINNED and (cpus or 1) >= 2 else False
    return _WORKER or None


def _forget_worker() -> None:
    global _WORKER
    _WORKER = None


if hasattr(os, "register_at_fork"):     # a forked child has no worker thread
    os.register_at_fork(after_in_child=_forget_worker)


# chunks a block list is dealt in: enough that the thread which finishes
# first takes over work, few enough that a chunk amortises its dealing
_CHUNKS = 8


def _rows(n: int, step: int) -> list:
    """The row slices [0, step), [step, 2 step), ... that tile [0, n) in
    order; only the last may be short."""
    return [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]


def _split(body: Callable, blocks: Sequence) -> None:
    """body(block) once for each of a list of whole blocks, dealt in about
    _CHUNKS chunks of consecutive blocks to whichever of the calling thread
    and the block worker is free. An exception in either thread re-raises
    here once both have stopped. A forward that builds a graph, a backward
    and a no-grad forward are dealt alike. With fewer than two blocks,
    without a worker, or called from inside the worker, every block runs
    in the calling thread, in order."""
    worker = _block_worker() if len(blocks) >= 2 else None
    if worker is None or threading.current_thread().name == _WORKER_NAME:
        for block in blocks:
            body(block)
        return
    chunks, lock = iter(_rows(len(blocks), -(-len(blocks) // _CHUNKS))), threading.Lock()

    def deal():
        while True:
            with lock:          # each chunk is drawn by exactly one thread
                chunk = next(chunks, None)
            if chunk is None:
                return
            for block in blocks[chunk]:
                body(block)

    wait = worker.submit(deal)
    try:
        deal()
    finally:
        error = wait()
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast_op("add", np.add, a, b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make("add", out, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast_op("elementwise-mul", np.multiply, a, b)
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _make("elementwise-mul", out, (a, b), bwd)


def smul(a: Tensor, value: float) -> Tensor:
    c = float(value)
    out = a.data * c

    def bwd(g):
        return (g * c,)

    return _make("scalar-mul", out, (a,), bwd)


def _row_stack_grads(ad: np.ndarray, wd: np.ndarray, g: np.ndarray) -> tuple:
    """Gradients of ad @ wd for one matrix wd applied to a stack of rows:
    the weight gradient is one GEMM over all rows, not a GEMM per stacked
    matrix summed afterwards."""
    return g @ wd.T, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked (batched) operands follow numpy matmul rules.

    Both operands must be at least 2-D; leading batch dims must match
    exactly or be absent on one side.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    ba, bb = a.shape[:-2], b.shape[:-2]
    if ba and bb and ba != bb:
        raise ShapeError(f"matmul: batch dims differ, {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def bwd(g):
        if bd.ndim == 2:
            return _row_stack_grads(ad, bd, g)
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make("matmul", out, (a, b), bwd)


def _check_bias(kind: str, b: Tensor, n: int) -> None:
    if b.shape != (n,):
        raise ShapeError(f"{kind}: bias must be ({n},), got {b.shape}")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis: x @ w + b with w [Cin, Cout], b [Cout].

    The bias is added last, in place into the GEMM output, so forward and
    gradients are bitwise those of ``matmul`` followed by ``add``.
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: cannot apply a {w.shape} weight to {x.shape}")
    _check_bias("linear", b, w.shape[1])
    out = x.data @ w.data
    out += b.data
    xd, wd = x.data, w.data

    def bwd(g):
        return (*_row_stack_grads(xd, wd, g), _unbroadcast(g, b.shape))

    return _make("linear", out, (x, w, b), bwd)


# ---------------------------------------------------------------------------
# convolution / resampling


def _conv_out_side(n: int, k: int, stride: int, padding: int) -> int:
    return (n + 2 * padding - k) // stride + 1


# the largest tap K (source channels) that _tap_sum accumulates inside BLAS.
# OpenBLAS adds a product into C one K block at a time, so a beta = 1 GEMM
# rounds as numpy's product then += only while K fits one block: up to
# K = 384 on OpenBLAS 0.3.31's SkylakeX kernels, not at 385. 256 covers
# every tap K of the shipped configs but the paper decoder's 512-channel
# input, which keeps numpy's loop.
_GEMM_K = 256

# the fewest output elements per block for which _tap_sum goes through the
# binding: below it a ctypes call costs more than the += it saves
_GEMM_MIN_OUT = 4096

# alpha and beta of the tap GEMMs, converted once
_ONE, _ZERO = ctypes.c_double(1.0), ctypes.c_double(0.0)


def _tap_rows(cin: int, cout: int) -> int:
    """Rows per block of ``_tap_sum`` for cin source and cout output columns."""
    return max(256, _BLOCK_ELEMS // max(cin, cout))


def _tap_sum(src: np.ndarray, offsets: Sequence[int], mats: np.ndarray, out: np.ndarray,
             rows: slice) -> None:
    """out[r] = sum over taps t of src[r + offsets[t]] @ mats[t] for the rows
    r of one block, written in place; mats is [taps, K, N].

    Every tap operand is a contiguous row slice of ``src``, so nothing is
    copied, and the block's output stays in cache while the taps add into
    it. Per row the taps are summed in order, as ``0 + t0 + t1 + ...``.
    Callers deal blocks of ``_tap_rows`` rows to two threads (``_split``)
    and run their epilogue on each block right after its taps.

    The taps accumulate inside BLAS: OpenBLAS's ``cblas_dgemm`` (``_DGEMM``)
    writes the first tap with beta = 0 and adds every later one with
    beta = 1, straight into the block's output rows. Each product is formed
    as numpy's matmul forms it and added into the output once, so the sum
    is bitwise numpy's matmul into a scratch block followed by ``+=``,
    without the scratch and the extra pass. numpy's loop runs instead where
    the binding is missing, where it would round otherwise (one row or one
    column, N = 1 being the head's forward: numpy calls gemv there, which
    sums in another order; K above ``_GEMM_K``), for blocks of fewer than
    ``_GEMM_MIN_OUT`` outputs (tiny desk maps, where a ctypes call costs
    more than it saves), and for operands its pointers cannot reach.
    """
    r0, r1 = rows.start, rows.stop
    _, K, N = mats.shape
    sa = src.strides[0]
    if (_DGEMM is None or r1 - r0 < 2 or N == 1 or K > _GEMM_K
            or (r1 - r0) * N < _GEMM_MIN_OUT
            or src.dtype != np.float64 or src.strides[1] != 8 or src.shape[1] != K
            or out.dtype != np.float64 or out.strides[1] != 8 or out.shape[1] != N
            or mats.dtype != np.float64 or not mats.flags.c_contiguous
            or r0 + min(offsets) < 0 or r1 + max(offsets) > len(src) or r1 > len(out)):
        acc, part = out[rows], np.empty((r1 - r0, N))
        np.matmul(src[r0 + offsets[0]:r1 + offsets[0]], mats[0], out=acc)
        for off, m in zip(offsets[1:], mats[1:]):
            np.matmul(src[r0 + off:r1 + off], m, out=part)
            acc += part
        return
    # pointers and integers converted once per block, not per tap
    a, b, c = src.ctypes.data + r0 * sa, mats.ctypes.data, out.ctypes.data + r0 * out.strides[0]
    n = _DGEMM.argtypes[3]
    m_, k_, n_, lda, ldc = n(r1 - r0), n(K), n(N), n(sa // 8), n(out.strides[0] // 8)
    beta = _ZERO
    for off in offsets:   # row-major, no transposes: C = A @ B + beta C
        _DGEMM(101, 111, 111, m_, n_, k_, _ONE, a + off * sa, lda, b, n_, beta, c, ldc)
        b, beta = b + 8 * K * N, _ONE


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    """A [B, H, W, C] map zero-padded by p on both spatial axes (x itself if p is 0)."""
    if not p:
        return x
    B, H, W, C = x.shape
    xp = np.zeros((B, H + 2 * p, W + 2 * p, C))
    xp[:, p:p + H, p:p + W] = x
    return xp


def _taps_matrices(wd: np.ndarray) -> np.ndarray:
    """The taps of a [Cout, Cin, kh, kw] kernel as contiguous [Cin, Cout]
    matrices in tap order (a GEMM on the strided view of wd[:, :, ki, kj].T
    gives the same bits)."""
    Cout, Cin, kh, kw = wd.shape
    return np.ascontiguousarray(wd.transpose(2, 3, 1, 0)).reshape(kh * kw, Cin, Cout)


def _grid_conv(src: np.ndarray, dims: tuple, offsets: Sequence[int], reach: int,
               mats: np.ndarray, Ho: int, Wo: int, finish: Callable) -> np.ndarray:
    """A conv's tap sum over a [B, Hg, Wg] grid, cropped to [B, Ho, Wo, Cout].

    Grid row r = (b*Hg + i)*Wg + j reads tap t at row r + offsets[t] of the
    flat source ``src``, so each tap is a contiguous slice of it. The tap
    sum runs one block of ``_tap_rows`` rows at a time (``_tap_sum``), the
    blocks dealt to two threads (``_split``). The last ``reach`` rows hold
    no valid output and are never computed, and the junk rows and columns
    (i >= Ho or j >= Wo) are skipped: inside the row block that computed
    them, every box of valid positions (``_valid_boxes``, an index of
    [B, Ho, Wo]) is copied to the output, and ``finish(dst, box)`` adds
    the epilogue into that part ``dst`` of it.
    """
    B, Hg, Wg = dims
    rows = B * Hg * Wg
    n_rows = rows - reach
    out = np.empty((rows, mats.shape[2]))
    grid = out.reshape(B, Hg, Wg, -1)
    # a grid without junk (a 1x1 kernel, no padding) is the output itself;
    # otherwise the output comes after the grid, so that the grid and the
    # padded input, both freed on return, can be one free run of the heap
    y = grid if (Hg, Wg) == (Ho, Wo) else np.empty((B, Ho, Wo, mats.shape[2]))

    def body(block):
        _tap_sum(src, offsets, mats, out, block)
        # one block is the whole output at once; a copy and an in-place add
        # are faster than one add from the strided grid
        whole = block.stop - block.start == n_rows
        for box in [slice(None)] if whole else _valid_boxes(block.start, block.stop,
                                                            Hg, Wg, Ho, Wo):
            dst = y[box]
            if y is not grid:
                np.copyto(dst, grid[:, :Ho, :Wo] if whole else grid[box])
            finish(dst, box)

    _split(body, _rows(n_rows, _tap_rows(src.shape[1], mats.shape[2])))
    return y


def _conv2d_strided(x: np.ndarray, p: int, wd: np.ndarray, s: int, Ho: int, Wo: int,
                    finish: Callable):
    """Conv of stride s > 1 of x zero-padded by p. Returns the [B, Ho, Wo,
    Cout] output, ``finish(out, slice(None))`` applied, and its backward,
    which maps the output gradient to (padded input gradient, weight
    gradient) with one GEMM per tap on a strided view of the padded input.

    The forward of a stride-2 conv whose tap sum takes at least two blocks
    reads its taps from a space-to-depth copy of the padded input: phase
    (a, c) holds padded pixel (2u + a, 2v + c) at (u, v) of a [B, Hh, Wh]
    grid, only the phases that a tap reads are made, and stacked flat they
    make tap (ki, kj) of output (i, j) the grid row (i + ki//2, j + kj//2)
    of phase (ki % 2, kj % 2), a fixed row offset (``_grid_conv``). Every
    other forward is the per-tap GEMM loop of the backward.
    """
    B, H, W, Cin = x.shape
    Cout, _, kh, kw = wd.shape
    taps = [(ki, kj, (slice(None), slice(ki, ki + s * Ho, s), slice(kj, kj + s * Wo, s)))
            for ki in range(kh) for kj in range(kw)]
    Hh, Wh = -(-(H + 2 * p) // 2), -(-(W + 2 * p) // 2)
    reach = (kh - 1) // 2 * Wh + (kw - 1) // 2
    xp = None
    if s == 2 and B * Hh * Wh - reach > _tap_rows(Cin, Cout):
        phases = sorted({(ki % 2, kj % 2) for ki, kj, _ in taps})
        ph = np.zeros((len(phases), B, Hh, Wh, Cin))

        def fill(k):
            a, c = phases[k]
            i0, j0 = (p - a + 1) // 2, (p - c + 1) // 2   # first phase row, column in x
            part = x[:, 2 * i0 + a - p::2, 2 * j0 + c - p::2]
            ph[k, :, i0:i0 + part.shape[1], j0:j0 + part.shape[2]] = part

        _split(fill, range(len(phases)))
        n = B * Hh * Wh
        offsets = [phases.index((ki % 2, kj % 2)) * n + ki // 2 * Wh + kj // 2
                   for ki, kj, _ in taps]
        out = _grid_conv(ph.reshape(-1, Cin), (B, Hh, Wh), offsets, reach, _taps_matrices(wd),
                         Ho, Wo, finish)
    else:
        xp = _pad(x, p)
        out = np.zeros((B * Ho * Wo, Cout))
        for ki, kj, tap in taps:
            out += xp[tap].reshape(-1, Cin) @ wd[:, :, ki, kj].T
        out = out.reshape(B, Ho, Wo, Cout)
        finish(out, slice(None))

    def bwd(g):
        xpg = _pad(x, p) if xp is None else xp
        g2 = g.reshape(-1, Cout)
        gw = np.empty_like(wd)
        gxp = np.zeros_like(xpg)
        for ki, kj, tap in taps:
            gw[:, :, ki, kj] = g2.T @ xpg[tap].reshape(-1, Cin)
            gxp[tap] += (g2 @ wd[:, :, ki, kj]).reshape(B, Ho, Wo, Cin)
        return gxp, gw

    return out, bwd


def _valid_boxes(r0: int, r1: int, Hp: int, Wp: int, Ho: int, Wo: int):
    """The valid positions (i < Ho, j < Wo) among the flat rows [r0, r1) of a
    [B, Hp, Wp] padded grid, as index boxes (b, rows, columns) of [B, Ho, Wo]:
    a run of whole rows of one image, or part of one row."""
    while r0 < r1:
        pr, j = divmod(r0, Wp)
        b, i = divmod(pr, Hp)
        if j or r1 - r0 < Wp:
            end = min(r1 - pr * Wp, Wp)
            if i < Ho and j < Wo:
                yield b, slice(i, i + 1), slice(j, min(end, Wo))
            r0 = pr * Wp + end
        else:
            n = min((r1 - r0) // Wp, Hp - i)
            if i < Ho:
                yield b, slice(i, min(i + n, Ho)), slice(0, Wo)
            r0 += n * Wp


def _conv2d_flat(xp: np.ndarray, wd: np.ndarray, Ho: int, Wo: int, finish: Callable):
    """Stride-1 conv over a padded input, on its flat [B*Hp*Wp, Cin] rows:
    output row r = (b*Hp + i)*Wp + j of the padded grid reads tap (ki, kj)
    at row r + ki*Wp + kj (``_grid_conv``, where ``finish`` runs). Returns
    the [B, Ho, Wo, Cout] output and the backward, which maps the output
    gradient to (padded input gradient, weight gradient).
    """
    B, Hp, Wp, Cin = xp.shape
    Cout, _, kh, kw = wd.shape
    rows = B * Hp * Wp
    offsets = [ki * Wp + kj for ki in range(kh) for kj in range(kw)]
    reach = offsets[-1]
    n_rows = rows - reach      # every row after the last valid output is junk
    xf = xp.reshape(rows, Cin)
    taps_w = _taps_matrices(wd)
    y = _grid_conv(xf, (B, Hp, Wp), offsets, reach, taps_w, Ho, Wo, finish)

    def bwd(g):
        # output gradient on the padded grid, zero at the junk positions,
        # after `reach` zero rows so that every tap's source row exists
        gf = np.zeros((reach + rows, Cout))
        gf[reach:].reshape(B, Hp, Wp, Cout)[:, :Ho, :Wo] = g
        g_rows = gf[reach:reach + n_rows]
        gw = np.empty_like(wd)
        for (ki, kj), off in zip(np.ndindex(kh, kw), offsets):
            gw[:, :, ki, kj] = g_rows.T @ xf[off:off + n_rows]
        # input row e gathers output row e - off of each tap, in tap order
        gxp = np.empty((rows, Cin))
        g_offsets, g_mats = [reach - off for off in offsets], taps_w.transpose(0, 2, 1).copy()
        _split(lambda block: _tap_sum(gf, g_offsets, g_mats, gxp, block),
               _rows(rows, _tap_rows(Cout, Cin)))
        return gxp.reshape(B, Hp, Wp, Cin), gw

    return y, bwd


def conv2d(x: Tensor, w: Tensor, b: Optional[Tensor], stride: int, padding: int) -> Tensor:
    """2-D cross-correlation (no kernel flip), zero padding, bias b or None.

    x: [B, H, W, Cin], w: [Cout, Cin, kh, kw], b: [Cout] -> [B, Ho, Wo, Cout].
    Forward and backward are one GEMM per kernel tap, taps summed in order.
    Stride 1 works on one flat zero-padded copy of the input, in which
    every tap is a contiguous row slice, in cache-sized blocks of output
    rows (``_conv2d_flat``), which crop the padded grid and add the bias
    inside each block. Stride 2 does the same on a space-to-depth copy of
    the padded input (``_conv2d_strided``) when its tap sum takes at least
    two blocks (most paper-scale downsampling convs; no smoke or desk
    map); other strided forwards, and every strided backward, run one
    GEMM per tap on a strided view. The bias is added last, to the tap
    sum, so a biased conv is bitwise the conv followed by a separate
    ``add``.

    The tap sums of the stride-1 forward, of its input gradient and of the
    stride-2 phase path accumulate inside BLAS: one OpenBLAS
    ``cblas_dgemm`` per tap adds its product straight into the block's
    output (``_tap_sum``), bitwise numpy's matmul into a scratch block
    followed by ``+=``. Products it would round otherwise stay on numpy:
    one output column (the 1-channel head's forward; numpy calls gemv
    there), tap K above 256 (OpenBLAS then adds a product into the output
    one K block at a time), and a one-row block. So do blocks of fewer than
    4,096 outputs, where the ctypes call costs more than it saves.

    The stride-1 path against the per-tap loop on strided copies that it
    replaced (kept in the tests as ``reference_conv2d``): the taps are
    summed in the same order, but a GEMM's per-row result can depend on
    its row count (BLAS picks kernels by size), so the forward and the
    input gradient are bitwise equal only where both GEMM sizes take the
    same kernel path, and within 1e-13 otherwise. The weight gradient's
    sum also runs over the zeros at the junk positions, so it agrees to
    rounding (1e-12 in the tests), not bitwise. Reruns are bitwise. The
    stride-2 tap sum is bitwise the per-tap loop on the multi-block maps
    it runs on; on maps of a few pixels it was seen to differ by 1e-14,
    hence the gate.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4-D x and w, got {x.shape}, {w.shape}")
    if x.shape[3] != w.shape[1]:
        raise ShapeError(f"conv2d: channel mismatch, x has {x.shape[3]}, w expects {w.shape[1]}")
    B, H, W, Cin = x.shape
    Cout, _, kh, kw = w.shape
    if b is not None:
        _check_bias("conv2d", b, Cout)
    s, p = int(stride), int(padding)
    Ho, Wo = _conv_out_side(H, kh, s, p), _conv_out_side(W, kw, s, p)
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"conv2d: output would be empty for x {x.shape}, kernel {w.shape}, "
                         f"stride {s}, padding {p}")
    bd = None if b is None else b.data

    def finish(dst, box):
        if bd is not None:
            dst += bd

    if s == 1:
        out, taps_bwd = _conv2d_flat(_pad(x.data, p), w.data, Ho, Wo, finish)
    else:
        out, taps_bwd = _conv2d_strided(x.data, p, w.data, s, Ho, Wo, finish)

    def bwd(g):
        gxp, gw = taps_bwd(g)
        gx = gxp[:, p:p + H, p:p + W] if p else gxp
        if b is None:
            return gx, gw
        return gx, gw, _unbroadcast(g, b.shape)

    parents = (x, w) if b is None else (x, w, b)
    return _make("conv2d", out, parents, bwd)


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbor x2 upsampling of a [B, H, W, C] map."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample2: need 4-D input, got {x.shape}")
    out = x.data.repeat(2, axis=1).repeat(2, axis=2)
    B, H, W, C = x.shape

    def bwd(g):
        return (g.reshape(B, H, 2, W, 2, C).sum(axis=(2, 4)),)

    return _make("upsample-nearest2", out, (x,), bwd)


# ---------------------------------------------------------------------------
# shape manipulation


def _reshape(x: Tensor, shape: tuple) -> Tensor:
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    in_shape = x.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _make("reshape", out, (x,), bwd)


def _permute(x: Tensor, axes: tuple) -> Tensor:
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {x.shape}")
    out = x.data.transpose(axes)
    inv = np.argsort(axes)

    def bwd(g):
        return (g.transpose(inv),)

    return _make("permute", out, (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat: empty input list")
    nd = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != nd:
            raise ShapeError(f"concat: rank mismatch {tensors[0].shape} vs {t.shape}")
        for ax in range(nd):
            if ax != axis % nd and t.shape[ax] != tensors[0].shape[ax]:
                raise ShapeError(f"concat: shapes {[u.shape for u in tensors]} differ off axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis % nd] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make("concat", out, tuple(tensors), bwd)


def roll(x: Tensor, shifts: Sequence[int], axes: Sequence[int]) -> Tensor:
    """Cyclic (toroidal) roll along the given axes."""
    sh, ax = tuple(shifts), tuple(axes)
    out = np.roll(x.data, sh, axis=ax)

    def bwd(g):
        return (np.roll(g, tuple(-s for s in sh), axis=ax),)

    return _make("roll", out, (x,), bwd)


# ---------------------------------------------------------------------------
# windowed self-attention


@functools.lru_cache(maxsize=64)
def _window_index(b: int, h: int, w: int, window: int, shift: int) -> tuple:
    """Flat pixel of each token of b maps rolled by -shift, tiled into windows.

    Token order is image, window row, window column, then row and column
    inside the window (the order of the Swin partition). Returns the
    gather index into the [b*h*w] pixels and the inverse permutation of
    one image's index, both read-only.
    """
    rows = (np.arange(h) + shift) % h
    cols = (np.arange(w) + shift) % w
    flat = rows[:, None] * w + cols[None, :]
    idx = flat.reshape(h // window, window, w // window, window).transpose(0, 2, 1, 3).ravel()
    inv = np.argsort(idx)
    tokens = (np.arange(b)[:, None] * (h * w) + idx).ravel()
    tokens.flags.writeable = inv.flags.writeable = False
    return tokens, inv


def _row_max(a: np.ndarray) -> np.ndarray:
    """Max over the last axis, kept as an axis of length 1: np.maximum of
    the two halves of the axis until one entry is left, an odd entry out
    folded into the first. A max is exact in any order, so the bits are
    those of ``a.max(axis=-1, keepdims=True)`` up to the sign of a zero
    (which ``exp(a - max)`` does not see). On the [windows, heads, 16, 16]
    score blocks of desk and paper-scale maps this takes about half the
    time numpy needs to reduce the short last axis."""
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        top = np.maximum(a[..., :half], a[..., half:2 * half])
        if a.shape[-1] % 2:
            np.maximum(top[..., :1], a[..., -1:], out=top[..., :1])
        a = top
    return a


def _attend(q: np.ndarray, k_t: np.ndarray, v: np.ndarray, scale: float,
            attn: Optional[np.ndarray]) -> tuple:
    """softmax(q @ k_t * scale) over the last axis, in place in the score
    array (written into attn unless it is None), and its product with v.
    The same operations as ``s = (q @ k_t) * scale; e = exp(s - max(s));
    e / sum(e)``, so the same bits."""
    attn = np.matmul(q, k_t, out=attn)
    attn *= scale
    attn -= _row_max(attn)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    return attn, attn @ v


def _window_attention(xd: np.ndarray, wq: np.ndarray, wk: np.ndarray, wv: np.ndarray,
                      wo: np.ndarray, heads: int, window: int, shift: int, keep: bool) -> tuple:
    """The forward of ``window_attention`` on arrays: (out, attention
    weights, bwd), where bwd maps the output gradient to the gradients of
    (x, wq, wk, wv, wo); the weights and bwd are None unless ``keep``.
    Shared by ``window_attention`` and ``swin_block``.

    One body per cache-sized block of whole windows does it all: gather
    the block's tokens, project them to Q, K and V, attend, merge the
    heads, project by wo and scatter the result into the output. The
    blocks are dealt to two threads (``_split``). With ``keep`` the arrays
    the backward reads are written into whole-map buffers; without it
    each block's arrays are fresh and cache-sized.
    """
    if xd.ndim != 4:
        raise ShapeError(f"window-attention: expected a [B, H, W, C] map, got {xd.shape}")
    b, h, w, c = xd.shape
    inner = wq.shape[-1]
    if (wq.shape != (c, inner) or wk.shape != (c, inner) or wv.shape != (c, inner)
            or wo.ndim != 2 or wo.shape[0] != inner):
        raise ShapeError(f"window-attention: weights {wq.shape}, {wk.shape}, {wv.shape}, "
                         f"{wo.shape} do not fit {c} channels")
    if heads < 1 or inner % heads:
        raise ShapeError(f"window-attention: {inner} inner channels not divisible by {heads} heads")
    if window < 1 or h % window or w % window:
        raise ShapeError(f"window-attention: window {window} does not divide map {h}x{w}")
    dk, cout = inner // heads, wo.shape[1]
    n = window * window
    nwin = b * (h // window) * (w // window)
    scale = float(1.0 / np.sqrt(dk))
    tokens, inv = _window_index(b, h, w, window, shift)
    xf = xd.reshape(-1, c)
    # a fresh C-ordered output, so the residual sums that swin_block adds
    # into it keep the layout (and so the reduction order) of the composed
    # chain's fresh ``add`` output; gx below keeps [:, inv], whose layout
    # the layer-norm backward sums see
    out = np.empty((b, h, w, cout))
    out_rows = out.reshape(-1, cout)
    # per window, what the backward reads: its tokens, their Q, K and V,
    # the attention weights and the merged heads
    kept = ((window, window, c), (window, window, inner), (window, window, inner),
            (window, window, inner), (heads, n, n), (window, window, inner))
    saved = [np.empty((nwin,) + shape) for shape in kept] if keep else None
    step = max(1, _BLOCK_ELEMS // (n * max(heads * n, c, inner, cout)))

    # the same numpy calls, on the same shapes per window, as the composed
    # chain (partition, per-head matmuls, softmax, merge): bitwise equal.
    # Each array goes into its slice of the saved ones or, without keep,
    # into a fresh one (out=None), whose memory the next block reuses.
    def body(wins):
        k = wins.stop - wins.start
        rows = tokens[wins.start * n:wins.stop * n]
        xw, q, kt, v, attn, ctx = [a[wins] for a in saved] if keep else [None] * 6
        # every index is valid, and "clip", unlike the default mode,
        # writes straight into out instead of through a buffer
        xw = xf.take(rows, axis=0, out=None if xw is None else xw.reshape(-1, c),
                     mode="clip").reshape(k, window, window, c)
        q = np.matmul(xw, wq, out=q)
        kt = np.matmul(xw, wk, out=kt)
        v = np.matmul(xw, wv, out=v)
        attn, av = _attend(q.reshape(k, n, heads, dk).transpose(0, 2, 1, 3),
                           kt.reshape(k, n, heads, dk).transpose(0, 2, 3, 1),
                           v.reshape(k, n, heads, dk).transpose(0, 2, 1, 3), scale, attn)
        ctx = np.empty((k, window, window, inner)) if ctx is None else ctx
        np.copyto(ctx.reshape(k, n, heads, dk), av.transpose(0, 2, 1, 3))
        out_rows[rows] = (ctx @ wo).reshape(-1, cout)

    _split(body, _rows(nwin, step))
    if not keep:
        return out, None, None
    xw, q, k_t, v, attn, ctx = saved
    q = q.reshape(nwin, n, heads, dk).transpose(0, 2, 1, 3)        # [nW, h, n, dk]
    k_t = k_t.reshape(nwin, n, heads, dk).transpose(0, 2, 3, 1)    # [nW, h, dk, n]
    v = v.reshape(nwin, n, heads, dk).transpose(0, 2, 1, 3)

    def bwd(g):
        gw = np.take(g.reshape(-1, cout), tokens, axis=0)      # window order
        g_wo = ctx.reshape(-1, inner).T @ gw
        g_ctx = (gw @ wo.T).reshape(nwin, n, heads, dk).transpose(0, 2, 1, 3)
        g_s = g_ctx @ np.swapaxes(v, -1, -2)           # the attention weights' gradient
        g_v = np.swapaxes(attn, -1, -2) @ g_ctx
        # attn * (g_attn - sum(g_attn * attn)) * scale, in place
        g_s -= (g_s * attn).sum(axis=-1, keepdims=True)
        g_s *= attn
        g_s *= scale
        g_q = g_s @ np.swapaxes(k_t, -1, -2)
        g_k = np.swapaxes(g_s, -1, -2) @ q
        # per-token rows [nW*n, 3*inner] of the Q|K|V gradients
        g_qkv = np.empty((nwin * n, 3 * inner))
        per_head = g_qkv.reshape(nwin, n, 3, heads, dk)
        for i, gh in enumerate((g_q, g_k, g_v)):
            per_head[:, :, i] = gh.transpose(0, 2, 1, 3)
        g_w = xw.reshape(-1, c).T @ g_qkv
        w_qkv = np.concatenate([wq, wk, wv], axis=1)
        gx = (g_qkv @ w_qkv.T).reshape(b, h * w, c)[:, inv].reshape(b, h, w, c)
        return gx, g_w[:, :inner], g_w[:, inner:2 * inner], g_w[:, 2 * inner:], g_wo

    return out, attn, bwd


def window_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                     heads: int, window: int, shift: int, return_weights: bool = False):
    """Shifted-window multi-head self-attention of a [B, H, W, C] map.

    The map is rolled by -shift on both spatial axes and tiled into
    window x window patches; inside each patch and head,
    softmax(Q K^T / sqrt(d_k)) V with Q, K, V = x wq, x wk, x wv
    ([C, heads * d_k] each); heads are concatenated, projected by wo
    ([heads * d_k, Cout]), and the patches are put back and rolled by
    +shift. Roll and tiling are one cached gather each way, so this is a
    single graph node with a hand-written backward. With
    ``return_weights`` the attention weights [nW, heads, n, n] (windows
    in partition order) come back as an untracked second Tensor.
    """
    parents = (x, wq, wk, wv, wo)
    out, attn, bwd = _window_attention(x.data, wq.data, wk.data, wv.data, wo.data,
                                       heads, window, shift,
                                       return_weights or _graph_wanted(parents))
    t = _make("window-attention", out, parents, bwd)
    if return_weights:
        return t, Tensor(attn)
    return t


# ---------------------------------------------------------------------------
# nonlinearities / normalization / reductions


def softmax(x: Tensor, axis: int) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make("softmax", out, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def bwd(g):
        # out > 0 is x > 0 for every x, NaN and -0.0 included (derivative
        # at 0 defined as 0), so no mask is kept from the forward
        return (g * (out > 0.0),)

    return _make("relu", out, (x,), bwd)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


# Cephes' erf/erfc coefficients (ndtr.c, S. L. Moshier), highest power
# first; U and Q are monic, so their leading 1.0 is written out
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERF_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
          3.54937778887819891062E2, 9.75708501743205489753E2, 1.82390916687909736289E3,
          2.24633760818710981792E3, 1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(z: np.ndarray, coefs: tuple) -> np.ndarray:
    """The polynomial with coefficients ``coefs`` (highest power first) at
    z, in the operation order of Cephes' polevl/p1evl."""
    acc = z * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= z
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function, bitwise equal to Cephes' erf (the one
    ``special.erf`` of SciPy runs), given the C library's exp, which
    ``math.exp`` calls.

    |x| <= 1: x T(x^2) / U(x^2). |x| > 1: +-(1 - exp(-x^2) P(|x|) / Q(|x|)),
    with exp taken by ``math.exp`` on those entries only (numpy's SIMD exp
    differs in the last bit on about 0.1% of them). From |x| = 6 on,
    erfc(|x|) < 2^-55 and the result is exactly +-1, so |x| is capped there:
    Cephes' R/S branch for |x| >= 8 and its exp-underflow cut-off can never
    change a bit of erf. NaN passes through.
    """
    flat = x.ravel()
    z = flat * flat
    out = flat * _horner(z, _ERF_T)
    out /= _horner(z, _ERF_U)
    big = np.flatnonzero(z > 1.0)
    if big.size:
        xb = flat[big]
        v = np.minimum(np.abs(xb), 6.0)
        y = np.array([math.exp(-s) for s in (v * v).tolist()])
        y *= _horner(v, _ERF_P)
        y /= _horner(v, _ERF_Q)
        out[big] = np.copysign(1.0 - y, xb)
    return out.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF GELU (Hendrycks & Gimpel 2016): x * Phi(x), with
    Phi(x) = (1 + erf(x / sqrt(2))) / 2 and erf from :func:`_erf`, so the
    forward and backward are bitwise those computed with Cephes' erf."""
    xd = x.data
    phi_cdf = 0.5 * (1.0 + _erf(xd * _INV_SQRT2))
    out = xd * phi_cdf

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return (g * (phi_cdf + xd * pdf),)

    return _make("gelu", out, (x,), bwd)


@functools.lru_cache(maxsize=None)
def _mean_vector(n: int) -> np.ndarray:
    """The read-only vector of n entries 1/n: ``a @ _mean_vector(n)`` is the
    mean over a last axis of length n, as a matrix-vector product, which
    numpy runs several times faster than it reduces a short contiguous axis."""
    avg = np.full(n, 1.0 / n)
    avg.flags.writeable = False
    return avg


def _norm_block(xb: np.ndarray, gam: np.ndarray, bet: np.ndarray, xc: Optional[np.ndarray],
                y: Optional[np.ndarray], inv: Optional[np.ndarray]) -> tuple:
    """Layer norm of xb over its last axis: (xhat * gam + bet, xhat,
    1/sqrt(var + _LN_EPS)), written into xc, y and inv (None: new arrays).

    The operations of ``xhat = (x - mean) * (1 / sqrt(var + _LN_EPS)); xhat *
    gam + bet``, the means as stacked matrix-vector products (one GEMV per
    trailing [W, C] matrix), so a block of whole matrices gets the bits of
    the whole array (the means flattened to one 2-D GEMV can round
    differently).
    """
    avg = _mean_vector(xb.shape[-1])
    xc = np.subtract(xb, (xb @ avg)[..., None], out=xc)
    y = np.multiply(xc, xc, out=y)
    inv = np.divide(1.0, np.sqrt((y @ avg)[..., None] + _LN_EPS), out=inv)
    np.multiply(xc, inv, out=xc)
    np.multiply(xc, gam, out=y)
    y += bet
    return y, xc, inv


def _layer_norm_bwd(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                    gam: np.ndarray) -> tuple:
    """(x, gamma, beta) gradients of a layer norm over the last axis."""
    avg = _mean_vector(g.shape[-1])
    lead = tuple(range(g.ndim - 1))
    prod = g * xhat
    g_gamma = prod.sum(axis=lead)
    g_beta = g.sum(axis=lead)
    # inv * (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat)), in place
    # in gx_hat and one scratch array, the same operations in the same order
    gx = g * gam
    np.multiply(gx, xhat, out=prod)
    m_gx_xhat = (prod @ avg)[..., None]
    gx -= (gx @ avg)[..., None]
    gx -= np.multiply(xhat, m_gx_xhat, out=prod)
    gx *= inv
    return gx, g_gamma, g_beta


def _layer_norm_fwd(xd: np.ndarray, gam: np.ndarray, bet: np.ndarray, keep: bool,
                    relu_into: Optional[np.ndarray]) -> tuple:
    """Layer norm of xd over its last axis: (y, xhat, 1/sqrt(var + _LN_EPS)),
    xhat and the inverse None unless keep. With ``relu_into``, a [B, H, W, C]
    view the shape of xd (the interior of a zero-bordered buffer), relu(y)
    is written there instead and y is that view.

    A map larger than a cache-sized block runs one block of whole [W, C]
    matrices at a time (``_norm_block``), the blocks dealt to two threads
    (``_split``), bitwise the formula on the whole array; blocks run per
    image when writing into ``relu_into``, whose images need not be one
    row run. Shared by ``layer_norm``, ``conv_block`` and ``swin_block``.
    """
    if xd.size <= _BLOCK_ELEMS:
        y, xhat, inv = _norm_block(xd, gam, bet, None, None, None)
        if relu_into is not None:
            y = np.maximum(y, 0.0, out=relu_into)
        return (y, xhat, inv) if keep else (y, None, None)
    # [images, rows, W, C]; without relu_into all leading axes are one row run
    x4 = xd if relu_into is not None else xd.reshape((1, -1) + ((1,) + xd.shape)[-2:])
    m, h, w, n = x4.shape
    y = relu_into if relu_into is not None else np.empty(x4.shape)
    xhat = np.empty(x4.shape) if keep else None
    inv = np.empty(x4.shape[:-1] + (1,)) if keep else None

    def body(block):
        yb, _, _ = _norm_block(x4[block], gam, bet, xhat[block] if keep else None,
                               None if relu_into is not None else y[block],
                               inv[block] if keep else None)
        if relu_into is not None:
            np.maximum(yb, 0.0, out=y[block])

    rows = _rows(h, max(1, _BLOCK_ELEMS // (w * n)))
    _split(body, [(i, r) for i in range(m) for r in rows])
    if relu_into is not None:
        return y, xhat, inv
    return (y.reshape(xd.shape), xhat.reshape(xd.shape) if keep else None,
            inv.reshape(xd.shape[:-1] + (1,)) if keep else None)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Layer normalization over the last axis, with affine parameters.

    A map larger than a cache-sized block runs one block of whole [W, C]
    matrices at a time (``_layer_norm_fwd``), bitwise the formula on the
    whole array.
    """
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(f"layer-norm: gamma/beta must be ({n},), got {gamma.shape}, {beta.shape}")
    gam = gamma.data
    out, xhat, inv = _layer_norm_fwd(x.data, gam, beta.data, _graph_wanted((x, gamma, beta)),
                                     None)

    def bwd(g):
        return _layer_norm_bwd(g, xhat, inv, gam)

    return _make("layer-norm", out, (x, gamma, beta), bwd)


def _check_time_bias(kind: str, t_bias: Tensor, shape: tuple) -> None:
    try:
        fits = np.broadcast_shapes(t_bias.shape, shape) == shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"{kind}: t_bias {t_bias.shape} does not broadcast to {shape}")


def conv_block(x: Tensor, gamma: Tensor, beta: Tensor, w: Tensor, b: Tensor,
               t_bias: Optional[Tensor]) -> Tensor:
    """Pre-norm conv residual block of a [B, H, W, C] map, one graph node:
    ``x + ((conv2d(relu(layer_norm(x, gamma, beta)), w, padding=1) + b) + t_bias)``
    with w [C, C, 3, 3], b [C] and t_bias None or a tensor that broadcasts
    to x (a [B, 1, 1, C] time bias).

    Layer norm and ReLU run in cache-sized blocks of image rows
    (``_layer_norm_fwd``), the ReLU writing straight into the interior of
    the zero-bordered buffer that the stride-1 conv reads its taps from;
    inside each block of the conv's tap sum the epilogue adds b, then
    t_bias, then x. Every element sees the same
    IEEE operations as the composed chain, so the forward and every
    gradient are bitwise equal to it.
    x is a parent twice, the residual term first: its two gradient terms
    reach the engine's accumulation as separate terms, in the order of
    the composed chain's residual ``add`` and ``layer_norm``, so a map
    that also feeds other nodes (a U-Net skip) gets a bitwise-equal
    gradient too.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv-block: expected a [B, H, W, C] map, got {x.shape}")
    B, H, W, C = x.shape
    if w.shape != (C, C, 3, 3):
        raise ShapeError(f"conv-block: weight must be {(C, C, 3, 3)}, got {w.shape}")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeError(f"conv-block: gamma/beta must be ({C},), got {gamma.shape}, {beta.shape}")
    _check_bias("conv-block", b, C)
    parents = (x, x, gamma, beta, w, b)
    if t_bias is not None:
        _check_time_bias("conv-block", t_bias, x.shape)
        parents += (t_bias,)
    gam = gamma.data
    xd = np.ascontiguousarray(x.data)
    xp = np.zeros((B, H + 2, W + 2, C))
    inner, xhat, inv = _layer_norm_fwd(xd, gam, beta.data, _graph_wanted(parents),
                                       xp[:, 1:H + 1, 1:W + 1])
    bd = b.data
    tb = None if t_bias is None else np.broadcast_to(t_bias.data, x.shape)

    def finish(dst, box):
        dst += bd
        if tb is not None:
            dst += tb[box]
        dst += xd[box]

    out, taps_bwd = _conv2d_flat(xp, w.data, H, W, finish)

    def bwd(g):
        gxp, gw = taps_bwd(g)
        g_ln = gxp[:, 1:H + 1, 1:W + 1] * (inner > 0.0)
        gx_ln, g_gamma, g_beta = _layer_norm_bwd(g_ln, xhat, inv, gam)
        grads = (g, gx_ln, g_gamma, g_beta, gw, _unbroadcast(g, b.shape))
        if t_bias is None:
            return grads
        return grads + (_unbroadcast(g, t_bias.shape),)

    return _make("conv-block", out, parents, bwd)


def swin_block(x: Tensor, ln1_g: Tensor, ln1_b: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
               wo: Tensor, t_bias: Optional[Tensor], ln2_g: Tensor, ln2_b: Tensor, w1: Tensor,
               b1: Tensor, w2: Tensor, b2: Tensor, heads: int, window: int,
               shift: int) -> Tensor:
    """Swin block of a [B, H, W, C] map, one graph node:
    ``s = (x + window_attention(layer_norm(x, ln1_g, ln1_b), wq, wk, wv, wo,
    heads, window, shift)) + t_bias``, then
    ``s + linear(relu(linear(layer_norm(s, ln2_g, ln2_b), w1, b1)), w2, b2)``,
    with t_bias None or a tensor that broadcasts to x (a [B, 1, 1, C] time
    bias) and w1 [C, hidden], w2 [hidden, C].

    The forward adds the residuals, the biases and the ReLU in place into
    the arrays the chain allocates, and the backward is hand-written; every
    element sees the same IEEE operations as the composed chain, so the
    forward and every gradient are bitwise equal to it. As in
    ``conv_block``, x is a parent twice, the residual term first. Layer
    norm and window attention run blocked (``_layer_norm_fwd``,
    ``_window_attention``); so does the MLP with its residual, in blocks
    of whole image rows, when its hidden layer spans at least two
    cache-sized blocks.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"swin-block: expected a [B, H, W, C] map, got {x.shape}")
    C = x.shape[3]
    for name, p in (("ln1_g", ln1_g), ("ln1_b", ln1_b), ("ln2_g", ln2_g), ("ln2_b", ln2_b)):
        if p.shape != (C,):
            raise ShapeError(f"swin-block: {name} must be ({C},), got {p.shape}")
    hidden = w1.shape[-1]
    if wo.shape[-1] != C or w1.shape != (C, hidden) or w2.shape != (hidden, C):
        raise ShapeError(f"swin-block: weights wo {wo.shape}, w1 {w1.shape}, w2 {w2.shape} "
                         f"do not fit {C} channels")
    _check_bias("swin-block", b1, hidden)
    _check_bias("swin-block", b2, C)
    parents = (x, x, ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, w1, b1, w2, b2)
    if t_bias is not None:
        _check_time_bias("swin-block", t_bias, x.shape)
        parents += (t_bias,)
    keep = _graph_wanted(parents)
    g1, g2, w1d, w2d = ln1_g.data, ln2_g.data, w1.data, w2.data
    a, xhat1, inv1 = _layer_norm_fwd(x.data, g1, ln1_b.data, keep, None)
    s, _, attn_bwd = _window_attention(a, wq.data, wk.data, wv.data, wo.data,
                                       heads, window, shift, keep)
    del a, _       # free the layer-norm output and the weights before the MLP allocates
    s += x.data
    if t_bias is not None:
        s += t_bias.data
    y, xhat2, inv2 = _layer_norm_fwd(s, g2, ln2_b.data, keep, None)

    def mlp(yb, rb, ob, sb):
        """The MLP and the residual on rows yb, into rb and ob (None: new arrays)."""
        rb = np.matmul(yb, w1d, out=rb)
        rb += b1.data
        np.maximum(rb, 0.0, out=rb)
        ob = np.matmul(rb, w2d, out=ob)
        ob += b2.data
        ob += sb
        return rb, ob

    # blocks of whole image rows, [W, C] matrices, whose widest array (the
    # hidden layer) holds about _BLOCK_ELEMS elements
    B, H, W = y.shape[:3]
    blocks = _rows(B * H, max(1, _BLOCK_ELEMS // (W * max(C, hidden))))
    if len(blocks) < 2:
        r, out = mlp(y, None, None, s)
    else:
        # [B*H] stacked matrices [W, C], into full arrays
        r, out = np.empty(y.shape[:-1] + (hidden,)), np.empty_like(s)
        rows = [arr.reshape((-1,) + arr.shape[2:]) for arr in (y, r, out, s)]
        _split(lambda block: mlp(*(arr[block] for arr in rows)), blocks)

    def bwd(g):
        g_r, g_w2 = _row_stack_grads(r, w2d, g)
        g_h = np.multiply(g_r, r > 0.0, out=g_r)
        g_y, g_w1 = _row_stack_grads(y, w1d, g_h)
        g_s, g_ln2_g, g_ln2_b = _layer_norm_bwd(g_y, xhat2, inv2, g2)
        g_s += g          # the residual sum's two terms, as the engine adds them
        g_a, g_wq, g_wk, g_wv, g_wo = attn_bwd(g_s)
        g_x, g_ln1_g, g_ln1_b = _layer_norm_bwd(g_a, xhat1, inv1, g1)
        grads = (g_s, g_x, g_ln1_g, g_ln1_b, g_wq, g_wk, g_wv, g_wo, g_ln2_g, g_ln2_b,
                 g_w1, _unbroadcast(g_h, b1.shape), g_w2, _unbroadcast(g, b2.shape))
        if t_bias is None:
            return grads
        return grads + (_unbroadcast(g_s, t_bias.shape),)

    return _make("swin-block", out, parents, bwd)


def _reduce_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    return (axis % ndim,)


def _sum(x: Tensor, axis) -> Tensor:
    axes = _reduce_axes(axis, x.data.ndim)
    out = x.data.sum(axis=axes)
    in_shape = x.shape

    def bwd(g):
        ge = np.expand_dims(g, axes) if g.ndim else g
        return (np.broadcast_to(ge, in_shape).copy(),)

    return _make("sum", out, (x,), bwd)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeError(f"mse-loss: shapes differ, {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size
    out = np.asarray((diff * diff).sum() / n)

    def bwd(g):
        base = (2.0 / n) * diff * g
        return base, -base

    return _make("mse-loss", out, (pred, target), bwd)


# ---------------------------------------------------------------------------
# dispatcher


_OPS = {
    "add": add,
    "elementwise-mul": mul,
    "scalar-mul": smul,
    "matmul": matmul,
    "linear": linear,
    "conv2d": conv2d,
    "upsample-nearest2": upsample2,
    "reshape": _reshape,
    "permute": _permute,
    "concat": lambda *tensors, axis: concat(tensors, axis),
    "roll": roll,
    "softmax": softmax,
    "relu": relu,
    "gelu": gelu,
    "layer-norm": layer_norm,
    "conv-block": conv_block,
    "swin-block": swin_block,
    "sum": _sum,
    "mse-loss": mse_loss,
    "window-attention": window_attention,
}

OP_NAMES = tuple(_OPS)


def forward_op(kind: str, inputs: Sequence[Tensor], attrs: dict) -> Tensor:
    """Run a catalog op by name, ``attrs`` as keyword arguments. Raises
    UnknownOpError for unlisted kinds."""
    try:
        fn = _OPS[kind]
    except KeyError:
        raise UnknownOpError(f"unknown op kind: {kind!r}") from None
    return fn(*inputs, **attrs)


# ---------------------------------------------------------------------------
# reverse pass


def _topo_order(root: Tensor) -> list:
    """Iterative post-order over graph-tracked tensors reachable from root."""
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t.node.parents:
            if p.node is not None and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor, leaves: Sequence[Tensor]) -> list:
    """d(root)/d(leaf) for each of ``leaves``, in the order given.

    root must be scalar and graph-tracked; ``leaves`` are tensors that no
    op produced. A leaf the graph never reached, or one that does not
    require a gradient, gets zeros. A gradient reached along several
    paths is summed in the graph's reverse topological order.

    The gradients are not copied: one may be a view into another
    gradient or into an op's buffer, so callers must not write into them.
    That is safe only while no op's backward writes into the gradient it
    receives.

    Graphs are single-use: each node frees its closure and parents once
    it has run, and a second backward through any shared node raises
    GraphConsumedError.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward: root must be scalar, got shape {root.shape}")
    if root.node is None:
        raise GraphConsumedError("backward: root is not graph-tracked")

    order = _topo_order(root)
    for t in order:
        if t.node.bwd is None:
            raise GraphConsumedError("backward: graph already consumed")

    # every node in order is an ancestor of root: its gradient is in by its turn
    grads = {id(root): np.ones_like(root.data)}
    while order:
        t = order.pop()
        node = t.node
        for p, pg in zip(node.parents, node.bwd(grads.pop(id(t)))):
            if p.node is not None or p.requires_grad:
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg
        node.bwd, node.parents = None, ()   # consumed: free the closure and the inputs
    return [grads[id(t)] if id(t) in grads else np.zeros_like(t.data) for t in leaves]
