"""Pixel bytes of the PGM dose map and the PPM difference map, against
values worked out by hand from the fixed ranges [0, 1.25] and ±0.25."""

import numpy as np

from dosediff.render import write_pgm, write_ppm_diff


def test_pgm_pixels(tmp_path):
    # pixel = rint(255 * clip(dose / 1.25, 0, 1)), rounding half to even:
    # 0.375 maps to 76.5 exactly and rounds down to 76, 0.625 to 127.5 and up to 128
    dose = np.array([[-0.5, -1e-9, 0.0, 0.375],
                     [0.625, 1.25, 1.3, 7.0]])
    write_pgm(tmp_path / "d.pgm", dose)
    assert (tmp_path / "d.pgm").read_bytes() == (
        b"P5\n4 2\n255\n" + bytes([0, 0, 0, 76, 128, 255, 255, 255]))


def test_ppm_diff_pixels(tmp_path):
    # zero is white, +0.25 and beyond full red, -0.25 and beyond full blue;
    # ±0.125 is half way: 127.5 rounds to 128
    diff = np.array([[-1.0, -0.25, -0.125, 0.0],
                     [0.125, 0.25, 0.3, 5.0]])
    write_ppm_diff(tmp_path / "d.ppm", diff)
    blue, white, red = (0, 0, 255), (255, 255, 255), (255, 0, 0)
    pixels = [blue, blue, (128, 128, 255), white,
              (255, 128, 128), red, red, red]
    assert (tmp_path / "d.ppm").read_bytes() == (
        b"P6\n4 2\n255\n" + bytes(v for px in pixels for v in px))
