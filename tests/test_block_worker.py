"""The block worker: the blocked kernels split between two threads.

OpenBLAS runs one thread for the whole process, and every blocked kernel
hands ``_split`` its list of whole blocks and a body that runs one of
them. The list is dealt in chunks to the calling thread and one
persistent worker thread, whichever is free, in a no-grad forward, a
forward that builds a graph and the backward alike. Each block is whole
rows, windows or stacked matrices, so the bits are those of the serial
loop. The ops below take at least two blocks; each is compared with the
worker on and forced off.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from dosediff import tensor as T

ROOT = Path(__file__).resolve().parents[1]


class CountingWorker(T._BlockWorker):
    """A block worker of the tests' own that counts the jobs submitted to it."""

    def __init__(self):
        super().__init__()
        self.submitted = 0

    def submit(self, run):
        self.submitted += 1
        return super().submit(run)


def in_worker():
    return threading.current_thread().name == T._WORKER_NAME


@pytest.fixture(scope="module")
def worker():
    return CountingWorker()


def leaves(rng, *shapes):
    return [T.Tensor(rng.standard_normal(s) * 0.3, requires_grad=True) for s in shapes]


def conv2d_case(rng, shape, k, p, stride=1):
    x, w, b = leaves(rng, shape, (16, shape[3], k, k), (16,))
    return lambda: T.conv2d(x, w, b, stride, p), [x, w, b]


def conv_block_case(rng):
    x, g, be, w, b, tb = leaves(rng, (2, 40, 40, 32), (32,), (32,), (32, 32, 3, 3), (32,),
                                (2, 1, 1, 32))
    return lambda: T.conv_block(x, g, be, w, b, tb), [x, g, be, w, b, tb]


def layer_norm_case(rng):
    x, g, b = leaves(rng, (2, 64, 64, 16), (16,), (16,))
    return lambda: T.layer_norm(x, g, b), [x, g, b]


def window_attention_case(rng):
    # 256 windows of 16 tokens and 64 channels: 4 blocks of 64 windows
    ps = leaves(rng, (1, 64, 64, 64), *[(64, 64)] * 4)
    return lambda: T.window_attention(*ps, 4, 4, 2), ps


def swin_block_case(rng):
    c = 64
    x, g1, b1, wq, wk, wv, wo, tb, g2, b2, w1, c1, w2, c2 = leaves(
        rng, (1, 64, 64, c), (c,), (c,), *[(c, c)] * 4, (1, 1, 1, c), (c,), (c,),
        (c, 4 * c), (4 * c,), (4 * c, c), (c,))
    ps = [x, g1, b1, wq, wk, wv, wo, tb, g2, b2, w1, c1, w2, c2]
    return lambda: T.swin_block(*ps, 4, 4, 2), ps


CASES = {
    "conv2d-3x3-two-images": lambda rng: conv2d_case(rng, (2, 40, 40, 32), 3, 1),
    "conv2d-1x1": lambda rng: conv2d_case(rng, (1, 96, 96, 16), 1, 0),
    "conv2d-3x3-unpadded": lambda rng: conv2d_case(rng, (1, 80, 40, 32), 3, 0),
    # a 66x66 phase grid, 4,289 rows: two tap-sum blocks of 4,096
    "conv2d-3x3-stride-2": lambda rng: conv2d_case(rng, (1, 130, 130, 16), 3, 1, 2),
    "conv-block": conv_block_case,
    "layer-norm": layer_norm_case,
    "window-attention": window_attention_case,
    "swin-block": swin_block_case,
}


def forward_and_grads(make, rng_seed, mark=lambda: None):
    """(no-grad forward, graph forward, gradient of every input), calling
    mark() before the first of the three and after each."""
    op, inputs = make(np.random.default_rng(rng_seed))
    mark()
    with T.no_grad():
        plain = op().data
    mark()
    out = op()
    mark()
    target = np.random.default_rng(1).standard_normal(out.shape)
    grads = T.backward(T.mse_loss(out, T.Tensor(target)), inputs)
    mark()
    return plain, out.data, grads


@pytest.mark.parametrize("name", list(CASES))
def test_worker_and_serial_give_the_same_bits(name, worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: None)
    serial = forward_and_grads(CASES[name], 0)
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    counts = []
    split = forward_and_grads(CASES[name], 0, lambda: counts.append(worker.submitted))
    no_grad_jobs, graph_jobs, backward_jobs = np.diff(counts)
    assert no_grad_jobs > 0 and graph_jobs > 0      # both forwards were split
    if name.startswith("conv") and "stride-2" not in name:
        assert backward_jobs > 0                    # so was the input gradient's tap sum
    for a, b in zip(serial[:2] + tuple(serial[2]), split[:2] + tuple(split[2])):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stride_2_phase_path_is_the_per_tap_path_bitwise(monkeypatch):
    grid_convs = []
    grid_conv = T._grid_conv
    monkeypatch.setattr(T, "_grid_conv", lambda *a: grid_convs.append(a) or grid_conv(*a))
    phase = forward_and_grads(CASES["conv2d-3x3-stride-2"], 0)
    assert len(grid_convs) == 2       # the no-grad and the graph forward read the phases
    # one tap-sum block for any map: the per-tap GEMM loop on strided views
    monkeypatch.setattr(T, "_tap_rows", lambda cin, cout: 1 << 30)
    per_tap = forward_and_grads(CASES["conv2d-3x3-stride-2"], 0)
    assert len(grid_convs) == 2
    for a, b in zip(phase[:2] + tuple(phase[2]), per_tap[:2] + tuple(per_tap[2])):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def dealt(blocks, body):
    """_split(body, blocks), the caller's first block held until the worker
    has taken one, so that both threads run chunks."""
    worker_began = threading.Event()

    def held(block):
        if in_worker():
            worker_began.set()
        else:
            worker_began.wait(30)
        body(block)

    T._split(held, blocks)


@pytest.mark.parametrize("n, step", [(0, 4), (1, 1), (7, 1), (7, 3), (8, 4), (5, 9),
                                     (4289, 4096)])
def test_row_blocks_tile_the_rows_in_order(n, step):
    blocks = T._rows(n, step)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
    # only the last block is short
    assert all(b.stop - b.start == step for b in blocks[:-1])
    assert all(0 < b.stop - b.start <= step for b in blocks)


def test_fewer_than_two_blocks_run_in_the_caller_without_the_worker(monkeypatch):
    def no_worker():
        raise AssertionError("_split asked for the worker")

    monkeypatch.setattr(T, "_block_worker", no_worker)
    seen = []
    T._split(lambda block: seen.append((block, in_worker())), [slice(0, 5)])
    T._split(lambda block: seen.append((block, in_worker())), [])
    assert seen == [(slice(0, 5), False)]


def test_every_block_runs_once_in_chunks(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    seen = []
    dealt(list(range(20)), lambda block: seen.append((block, in_worker())))
    assert sorted(block for block, _ in seen) == list(range(20))
    # ceil(20 / 8) = 3 blocks a chunk; each chunk runs whole, in order, in one thread
    for lo in range(0, 20, 3):
        chunk = [(block, by_worker) for block, by_worker in seen if lo <= block < lo + 3]
        assert [block for block, _ in chunk] == list(range(lo, min(lo + 3, 20)))
        assert len({by_worker for _, by_worker in chunk}) == 1
    assert {by_worker for _, by_worker in seen} == {False, True}


def test_chunks_are_drawn_once_under_fast_thread_switches(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        for n in range(2, 200):
            seen = []
            T._split(seen.append, range(n))
            assert sorted(seen) == list(range(n))
            assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)


def test_worker_exception_reraises_in_the_caller(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    ran = []

    def body(block):
        if in_worker():
            raise ValueError(f"block {block}")
        ran.append(block)

    with pytest.raises(ValueError, match=r"block \d+") as err:
        dealt(list(range(8)), body)
    # one block a chunk: the caller ran every block but the one that failed
    # in the worker
    failed = int(err.value.args[0].split()[1])
    assert sorted(ran + [failed]) == list(range(8))

    ended = []

    def slow_worker(block):
        if in_worker():
            time.sleep(0.2)
            ended.append(block)
        else:
            raise ValueError("in the caller")

    with pytest.raises(ValueError, match="in the caller"):
        dealt([0, 1], slow_worker)
    assert len(ended) == 1            # re-raised only once the worker's chunk had ended


def test_split_inside_the_worker_runs_serially(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    seen = []

    def outer(block):
        by_worker = in_worker()
        T._split(lambda inner: seen.append((by_worker, inner, in_worker())), range(4))

    caller = threading.Thread(target=dealt, args=([0, 1], outer))
    caller.start()
    caller.join(30)
    assert not caller.is_alive(), "a split inside the worker deadlocked"
    # the worker's block ran its split alone, in order; the caller's was
    # dealt again, one block a chunk
    assert [s for s in seen if s[0]] == [(True, i, True) for i in range(4)]
    assert sorted(s[1] for s in seen if not s[0]) == [0, 1, 2, 3]


WORKER_PROBE = """
import json, os, sys
import numpy as np
import dosediff
from dosediff import diffusion as D, phantom as P, tensor as T, train as TR
from dosediff.config import load_config
from dosediff.networks import DoseModel

get = T._openblas("get_num_threads")
threads = lambda: None if get is None else get()
imported = threads()
cfg = load_config(sys.argv[1])
m = cfg.model
model = DoseModel(m, cfg.seed)
sched = D.make_schedule(10, m.beta_start, m.beta_end)
sample = P.generate_phantom(0, m.image_size, m.oar_count, cfg.data.beam_count)
cond, dose = P.normalize_batch([sample] * cfg.train.batch_size)
TR.fit_step(model, (dose, cond), sched, np.random.default_rng(0), cfg.train.lr,
            (cfg.train.beta1, cfg.train.beta2))
TR.sample_case(model, sched, sample, TR.case_seed_key(cfg.seed, "sample_00000"))
desk = T._WORKER is not None
with T.no_grad():
    T.layer_norm(T.Tensor(np.ones((1, 64, 64, 32))), T.Tensor(np.ones(32)),
                 T.Tensor(np.zeros(32)))
    inside = threads()
print(json.dumps({"imported": imported, "desk_started_worker": desk, "worker": bool(T._WORKER),
                  "inside": inside, "after": threads(), "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()}))
"""


def test_blas_runs_one_thread_and_desk_work_starts_no_worker():
    # OpenBLAS would run two threads of its own
    out = subprocess.run([sys.executable, "-c", WORKER_PROBE,
                          str(ROOT / "configs" / "desk.json")],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
                              "OPENBLAS_NUM_THREADS": "2"})
    got = json.loads(out.stdout.splitlines()[-1])
    # a desk training step and a desk sample_case: no block list reaches two blocks
    assert not got["desk_started_worker"]
    if got["imported"] is None:       # no OpenBLAS thread API: nothing pinned, no worker
        assert (got["inside"], got["after"], got["worker"]) == (None, None, False)
    else:
        # pinned by the import, in and after no_grad; a blocked kernel
        # starts the worker wherever two CPUs are free to run it
        assert (got["imported"], got["inside"], got["after"]) == (1, 1, 1)
        assert got["worker"] == (got["cpus"] >= 2)
