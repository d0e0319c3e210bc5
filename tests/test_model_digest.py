"""The bitwise record: ``scripts/model_digest.py`` must print its pinned lines.

Each line is one SHA-256 over everything a model wiring computes (fresh
parameters, a seeded loss, every gradient, a no-grad ``eps_hat``) or over
a checkpoint round trip. The values depend on numpy and its BLAS build; a
change that moves a line, by design or by an upgrade, re-records it here
and says which line moved and why in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

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
