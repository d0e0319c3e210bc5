"""The bitwise record: ``scripts/model_digest.py`` must print its pinned lines.

Each line is one SHA-256 over everything a model wiring computes (fresh
parameters, a seeded loss, every gradient, a no-grad ``eps_hat``) or over
a checkpoint round trip. The values depend on numpy and its BLAS build; a
change that moves a line, by design or by an upgrade, re-records it here
and says which line moved and why in CHANGES.md.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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
    # recorded at 40d579a, before the blocked kernels split across two threads
    "blocked-128px": "05191bb0d48fd49dd5f6487093ca0a71d4f8b0e10ec1bedff3102e0abb69fa06",
    "desk.json checkpoint": "4c6a3ffad664782a8f5d5d2dee861bf10c53ca15f6fde2f8963ca83e2cbb098b",
}


def test_model_digest_lines_are_pinned():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "model_digest.py")],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    got = {}
    for line in out.stdout.splitlines():
        digest, label = line.split(" ", 1)
        got[label] = digest
    assert list(got) == list(PINNED), "the script prints other wirings than the pinned ones"
    moved = [label for label in PINNED if got[label] != PINNED[label]]
    assert not moved, "digest line moved: " + ", ".join(
        f"{label!r} {got[label]} (pinned {PINNED[label]})" for label in moved)


def load_digest_script():
    spec = importlib.util.spec_from_file_location("model_digest",
                                                  ROOT / "scripts" / "model_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blocked_wiring_runs_every_multi_block_path(monkeypatch):
    """The ``blocked-128px`` line covers the multi-block paths: the phase
    tap sum of the 128 -> 64 and 64 -> 32 px stride-2 convs and the window
    attention at 64 px each take at least two blocks, in the loss's forward
    (the gradients read what it saves) and in the no-grad ``eps_hat``."""
    script = load_digest_script()
    blocks = {}            # (op, graph) -> the most blocks one of its splits took
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
    count_inside("_window_attention", lambda x, *rest: f"window attention at {x.shape[1]} px")
    split = T._split

    def counting_split(run, n):
        if inside:
            blocks[inside[-1]] = max(n, blocks.get(inside[-1], 0))
        return split(run, n)

    monkeypatch.setattr(T, "_split", counting_split)
    script.digest(script.blocked_cfg(), 1)
    for op in ["stride-2 3x3 conv at 128 px", "stride-2 3x3 conv at 64 px",
               "window attention at 64 px"]:
        for graph in (True, False):
            assert blocks.get((op, graph), 0) >= 2, (op, graph, blocks)
