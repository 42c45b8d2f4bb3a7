"""Errno values returned (negated) by the simulated kernel."""

from __future__ import annotations

EPERM = 1
ENOENT = 2
EINTR = 4
EBADF = 9
EAGAIN = 11
ENOMEM = 12
EACCES = 13
EFAULT = 14
EEXIST = 17
ENOTDIR = 20
EISDIR = 21
EINVAL = 22
ENFILE = 23
EPIPE = 32
ENOSYS = 38
ENOTSOCK = 88
EADDRINUSE = 98
ECONNRESET = 104
ECONNREFUSED = 111
