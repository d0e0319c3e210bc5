"""The block worker: the blocked kernels split between two threads.

A kernel's list of blocks is dealt in chunks to the calling thread and
one persistent worker thread, whichever is free, only for a forward that
builds no graph (under ``no_grad``). Each chunk is whole blocks or whole
stacked matrices, so the bits are those of the serial loop. The ops
below run above every split threshold; each is compared with the worker
on and forced off.
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
    """A block worker of the tests' own (BLAS keeps its thread count) that
    counts the jobs submitted to it."""

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
    # 4096 tokens x 64 x 64: every projection is a 2^24 multiply-add product
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


def forward_and_grads(make, rng_seed):
    """(no-grad forward, graph forward, gradient of every input)."""
    op, inputs = make(np.random.default_rng(rng_seed))
    with T.no_grad():
        plain = op().data
    out = op()
    target = np.random.default_rng(1).standard_normal(out.shape)
    return plain, out.data, T.backward(T.mse_loss(out, T.Tensor(target)), inputs)


@pytest.mark.parametrize("name", list(CASES))
def test_worker_and_serial_give_the_same_bits(name, worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: None)
    serial = forward_and_grads(CASES[name], 0)
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    before = worker.submitted
    split = forward_and_grads(CASES[name], 0)
    assert worker.submitted > before          # the no-grad forward was split
    for a, b in zip(serial[:2] + tuple(serial[2]), split[:2] + tuple(split[2])):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_graph_building_work_runs_serially(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    op, inputs = swin_block_case(np.random.default_rng(0))
    before = worker.submitted
    out = op()
    T.backward(T.mse_loss(out, T.Tensor(np.zeros(out.shape))), inputs)
    assert worker.submitted == before


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


def dealt(n, run):
    """_split(run, n) under no_grad, the caller's first chunk held until the
    worker has taken one, so that both threads run chunks."""
    worker_began = threading.Event()

    def held(lo, hi):
        if in_worker():
            worker_began.set()
        else:
            worker_began.wait(30)
        run(lo, hi)

    with T.no_grad():
        T._split(held, n)


def test_every_block_runs_once_in_chunks(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    seen = []
    dealt(20, lambda lo, hi: seen.append((lo, hi, in_worker())))
    # ceil(20 / 8) = 3 blocks a chunk, each chunk run once, by both threads
    assert sorted((lo, hi) for lo, hi, _ in seen) == [(lo, min(lo + 3, 20))
                                                     for lo in range(0, 20, 3)]
    assert {by_worker for _, _, by_worker in seen} == {False, True}


def test_chunks_are_drawn_once_under_fast_thread_switches(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        for n in range(2, 200):
            seen = []
            with T.no_grad():
                T._split(lambda lo, hi: seen.extend(range(lo, hi)), n)
            assert sorted(seen) == list(range(n))
            assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)


def test_worker_exception_reraises_in_the_caller(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    ran = []

    def run(lo, hi):
        if in_worker():
            raise ValueError(f"blocks {lo}:{hi}")
        ran.append((lo, hi))

    with pytest.raises(ValueError, match=r"blocks \d+:\d+") as err:
        dealt(8, run)
    # the caller ran every chunk but the one that failed in the worker
    lo, hi = map(int, err.value.args[0].split()[1].split(":"))
    assert sorted(ran + [(lo, hi)]) == [(i, i + 1) for i in range(8)]

    ended = []

    def slow_worker(lo, hi):
        if in_worker():
            time.sleep(0.2)
            ended.append((lo, hi))
        else:
            raise ValueError("in the caller")

    with pytest.raises(ValueError, match="in the caller"):
        dealt(2, slow_worker)
    assert len(ended) == 1            # re-raised only once the worker's chunk had ended


def test_split_inside_the_worker_runs_serially(worker, monkeypatch):
    monkeypatch.setattr(T, "_block_worker", lambda: worker)
    seen = []

    def outer(lo, hi):
        by_worker = in_worker()
        T._split(lambda a, b: seen.append((by_worker, a, b, in_worker())), 4)

    caller = threading.Thread(target=dealt, args=(2, outer))
    caller.start()
    caller.join(30)
    assert not caller.is_alive(), "a split inside the worker deadlocked"
    # the worker's chunk ran its split alone; the caller's was dealt again,
    # one block a chunk
    assert [s for s in seen if s[0]] == [(True, 0, 4, True)]
    assert sorted(s[1:3] for s in seen if not s[0]) == [(0, 1), (1, 2), (2, 3), (3, 4)]


WORKER_PROBE = """
import json, sys
import numpy as np
from dosediff import diffusion as D, phantom as P, tensor as T, train as TR
from dosediff.config import load_config
from dosediff.networks import DoseModel

get = T._openblas("get_num_threads")
threads = lambda: None if get is None else get()
before = threads()
cfg = load_config(sys.argv[1])
m = cfg.model
model = DoseModel(m, cfg.seed)
sched = D.make_schedule(10, m.beta_start, m.beta_end)
sample = P.generate_phantom(0, m.image_size, m.oar_count, cfg.data.beam_count)
cond, dose = P.normalize_batch([sample] * cfg.train.batch_size)
TR.fit_step(model, (dose, cond), sched, np.random.default_rng(0), cfg.train.lr,
            (cfg.train.beta1, cfg.train.beta2))
TR.sample_case(model, sched, sample, TR.case_seed_key(cfg.seed, "sample_00000"))
desk = {"started": T._WORKER is not None, "threads": threads()}
with T.no_grad():
    T.layer_norm(T.Tensor(np.ones((1, 64, 64, 32))), T.Tensor(np.ones(32)),
                 T.Tensor(np.zeros(32)))
    inside = threads()
print(json.dumps({"before": before, "desk": desk, "worker": bool(T._WORKER),
                  "inside": inside, "after": threads()}))
"""


def test_desk_work_starts_no_worker_and_leaves_blas_alone():
    out = subprocess.run([sys.executable, "-c", WORKER_PROBE, str(ROOT / "configs" / "desk.json")],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    got = json.loads(out.stdout.splitlines()[-1])
    # a desk training step and a desk sample_case: no block list reaches two blocks
    assert got["desk"] == {"started": False, "threads": got["before"]}
    # a blocked no-grad kernel starts the worker where it can run, which
    # pins BLAS to one thread until no_grad ends
    if got["worker"]:
        assert (got["inside"], got["after"]) == (1, got["before"])
    else:
        assert got["inside"] == got["after"] == got["before"]
