"""In-memory virtual filesystem.

The paper's global syscalls (read/write/...) act on host files; our host is
the simulation, so files live in memory on the master node — which is also
what makes them naturally "centralized system state" (§4.3).  stdout/stderr
are captured into buffers the experiment harness can inspect; stdin is
pre-seeded input.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.sysnums import ERRNO

__all__ = ["VFS", "OpenFile", "O_RDONLY", "O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"]

O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_ACCMODE = 0o3
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000

SEEK_SET, SEEK_CUR, SEEK_END = 0, 1, 2


@dataclass
class OpenFile:
    path: str
    flags: int
    offset: int = 0


class VFS:
    """Flat-namespace in-memory filesystem with a shared fd table.

    Guest threads share one process, hence one fd table — matching the
    thread (not process) model the benchmarks use.
    """

    def __init__(self, *, stdin: bytes = b""):
        self._files: dict[str, bytearray] = {}
        self._fds: dict[int, OpenFile] = {}
        self._next_fd = 3
        self.stdin = bytearray(stdin)
        self._stdin_off = 0
        self.stdout = bytearray()
        self.stderr = bytearray()

    # -- setup --------------------------------------------------------------

    def add_file(self, path: str, data: bytes) -> None:
        self._files[path] = bytearray(data)

    def file_bytes(self, path: str) -> bytes:
        return bytes(self._files[path])

    # -- syscall surface (returns >=0 or -errno) ----------------------------------

    def openat(self, path: str, flags: int) -> int:
        if path not in self._files:
            if not flags & O_CREAT:
                return -ERRNO.ENOENT
            self._files[path] = bytearray()
        elif flags & O_TRUNC and flags & O_ACCMODE != O_RDONLY:
            self._files[path] = bytearray()
        fd = self._next_fd
        self._next_fd += 1
        off = len(self._files[path]) if flags & O_APPEND else 0
        self._fds[fd] = OpenFile(path=path, flags=flags, offset=off)
        return fd

    def close(self, fd: int) -> int:
        if fd in (0, 1, 2):
            return 0
        if self._fds.pop(fd, None) is None:
            return -ERRNO.EBADF
        return 0

    def read(self, fd: int, count: int) -> bytes | int:
        """Returns data bytes, or -errno."""
        if fd == 0:
            data = bytes(self.stdin[self._stdin_off : self._stdin_off + count])
            self._stdin_off += len(data)
            return data
        of = self._fds.get(fd)
        if of is None or of.flags & O_ACCMODE == O_WRONLY:
            return -ERRNO.EBADF
        content = self._files[of.path]
        data = bytes(content[of.offset : of.offset + count])
        of.offset += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        if fd == 1:
            self.stdout += data
            return len(data)
        if fd == 2:
            self.stderr += data
            return len(data)
        of = self._fds.get(fd)
        if of is None or of.flags & O_ACCMODE == O_RDONLY:
            return -ERRNO.EBADF
        content = self._files[of.path]
        end = of.offset + len(data)
        if end > len(content):
            content.extend(bytes(end - len(content)))
        content[of.offset : end] = data
        of.offset = end
        return len(data)

    def lseek(self, fd: int, offset: int, whence: int) -> int:
        of = self._fds.get(fd)
        if of is None:
            return -ERRNO.EBADF
        size = len(self._files[of.path])
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = of.offset + offset
        elif whence == SEEK_END:
            new = size + offset
        else:
            return -ERRNO.EINVAL
        if new < 0:
            return -ERRNO.EINVAL
        of.offset = new
        return new

    # -- diagnostics ----------------------------------------------------------

    def dump_files(self) -> dict[str, bytes]:
        """Snapshot of every regular file (post-run inspection)."""
        return {path: bytes(data) for path, data in self._files.items()}

    def stdout_text(self) -> str:
        return self.stdout.decode("utf-8", errors="replace")

    def stderr_text(self) -> str:
        return self.stderr.decode("utf-8", errors="replace")
