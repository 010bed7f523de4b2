"""All-or-nothing file writes for every saved artifact.

`atomic_write` hands out a temporary file next to the target and moves it
over the target with `os.replace` only once the write has finished. An
interrupted or failed write leaves the previous file untouched and removes
the temporary one. The data is not fsynced: this guards against a crashed or
killed process, not against a power loss. Text tables go through
`write_lines`.
"""

from __future__ import annotations

import contextlib
import os
import secrets


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a temporary file for writing; on a clean exit it becomes `path`."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    mode, encoding = ("xb", None) if binary else ("x", "utf-8")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_lines(path, lines) -> None:
    """Write each of `lines` followed by a newline to `path`, atomically."""
    with atomic_write(path) as fh:
        for line in lines:
            fh.write(f"{line}\n")
