"""The bitwise record: ``scripts/model_digest.py`` must print its pinned lines.

Each line is one SHA-256 over everything a model wiring computes (fresh
parameters, a seeded loss, every gradient, a no-grad ``eps_hat``) or over
a checkpoint round trip. The values depend on numpy, its BLAS build and
the CPU model, but not on the thread setup: the script prints the same
lines on one CPU at one BLAS thread and with the block worker at two. A
change that moves a line, by design or by an upgrade, re-records it here
and says which line moved and why in CHANGES.md.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dosediff import tensor as T

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "concatenate": "0a3f116b609604e10ce890728058716bbfe3248fa31f7c78af94723446b118d7",
    "add-all": "14f9491cc50ca1e2ee73f5da688c860acd35f299473df43502066ab65209dcb8",
    "attn-all": "98fd657f3fa171633a759e3556d26b33c7e838578997f2c48af830472ab1662a",
    "attn-last0": "14f9491cc50ca1e2ee73f5da688c860acd35f299473df43502066ab65209dcb8",
    "attn-last2": "e2bf048dcf969b48f657a5676691092e1cc0b6b12309975f007fd8539a8c99ce",
    "attn-last2-no-projector":
        "1b4a305281be45c42de2abc05d1e62d50aa627268f84c15483c0d9ed9662a6a6",
    "desk.json": "5846c36e75c1de7110570c02f8b6eeb92eb4a0ddf948732227a8bdd503e66eb4",
    # re-recorded when OpenBLAS was pinned to one thread for the whole process:
    # at two BLAS threads three stride-1 conv weight gradients had other bits
    "blocked-128px": "3624d4e9b9f8d1e6bdd7d08c32d37e5185269be26ce1030c8b88591c35d814ff",
    "desk.json checkpoint": "4c6a3ffad664782a8f5d5d2dee861bf10c53ca15f6fde2f8963ca83e2cbb098b",
}


# runs the digest script on one CPU of the child's affinity, set before
# numpy or dosediff is imported, so that no block worker can start
ONE_CPU = """
import os, runpy, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.argv = [sys.argv[1]]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def assert_pinned(argv, **env):
    out = subprocess.run([sys.executable, *argv, str(ROOT / "scripts" / "model_digest.py")],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **env})
    got = {}
    for line in out.stdout.splitlines():
        digest, label = line.split(" ", 1)
        got[label] = digest
    assert list(got) == list(PINNED), "the script prints other wirings than the pinned ones"
    moved = [label for label in PINNED if got[label] != PINNED[label]]
    assert not moved, "digest line moved: " + ", ".join(
        f"{label!r} {got[label]} (pinned {PINNED[label]})" for label in moved)


def test_model_digest_lines_are_pinned():
    assert_pinned([])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_and_one_blas_thread_print_the_pinned_lines():
    assert_pinned(["-c", ONE_CPU], OPENBLAS_NUM_THREADS="1")


def test_two_blas_threads_on_every_cpu_print_the_pinned_lines():
    assert_pinned([], OPENBLAS_NUM_THREADS="2")


def load_digest_script():
    spec = importlib.util.spec_from_file_location("model_digest",
                                                  ROOT / "scripts" / "model_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blocked_wiring_runs_every_multi_block_path(monkeypatch):
    """The ``blocked-128px`` line covers the multi-block paths: the phase
    tap sum of the 128 -> 64 and 64 -> 32 px stride-2 convs, the layer norm
    at 128 px and the window attention and the Swin MLP at 64 px each take
    at least two blocks, in the loss's forward (the gradients read what it
    saves) and in the no-grad ``eps_hat``."""
    script = load_digest_script()
    most = {}              # (op, graph) -> the most blocks one of its splits took
    inside = []            # the op whose splits are being counted

    def count_inside(name, label):
        fn = getattr(T, name)

        def wrapper(*args):
            inside.append((label(*args), T._GRAD_ENABLED))
            try:
                return fn(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(T, name, wrapper)

    count_inside("conv2d", lambda x, w, b, stride, padding:
                 f"stride-{stride} {w.shape[2]}x{w.shape[3]} conv at {x.shape[1]} px")
    count_inside("_layer_norm_fwd", lambda x, *rest: f"layer norm at {x.shape[1]} px")
    count_inside("_window_attention", lambda x, *rest: f"window attention at {x.shape[1]} px")
    # the Swin block's own split, once its layer norms and attention are
    # counted apart, is its MLP's
    count_inside("swin_block", lambda x, *rest: f"Swin MLP at {x.shape[1]} px")
    split = T._split

    def counting_split(body, blocks):
        if inside:
            most[inside[-1]] = max(len(blocks), most.get(inside[-1], 0))
        return split(body, blocks)

    monkeypatch.setattr(T, "_split", counting_split)
    script.digest(script.blocked_cfg(), 1)
    for op in ["stride-2 3x3 conv at 128 px", "stride-2 3x3 conv at 64 px",
               "layer norm at 128 px", "window attention at 64 px", "Swin MLP at 64 px"]:
        for graph in (True, False):
            assert most.get((op, graph), 0) >= 2, (op, graph, most)
