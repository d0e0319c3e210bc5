"""Atomic file writes: a reader sees either the old file or the whole new one."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Union

# characters of the target's name in its temporary name: at 4 bytes each
# in UTF-8, the temporary name stays far below a 255-byte name limit
TMP_NAME_CHARS = 32


def write_atomic(path, data: Union[str, bytes, Iterable[bytes]]) -> None:
    """Write ``data`` (text, bytes, or byte chunks) to ``path`` atomically.

    The bytes go to a hidden temporary file in the same directory, which
    ``os.replace`` then moves over ``path``. A write that fails midway
    leaves any previous file intact and removes the temporary file.
    Text is written as UTF-8. The temporary name keeps at most
    TMP_NAME_CHARS characters of the name, so any name the file system
    takes can be written.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
    tmp = path.with_name(f".{path.name[:TMP_NAME_CHARS]}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for part in data:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
