"""Synthetic Linux-kernel-tarball slice: ustar members of mixed content.

A kernel tarball is C sources, headers, Makefiles and Kconfig text
wrapped in 512-byte ustar headers.  The generator emits genuine ustar
headers (name, mode, size in octal, valid checksum) around synthetic
members: C files (reusing the C-corpus generator), header files with
``#define`` blocks, and Makefile fragments — matching the ~55 % serial
ratio of Table II's kernel row."""

from __future__ import annotations

import numpy as np

from repro.datasets.cfiles import generate_cfiles

__all__ = ["generate_kernel_tarball", "ustar_header"]

_DIRS = [b"drivers/net/", b"fs/ext4/", b"kernel/sched/", b"mm/", b"lib/",
         b"arch/x86/kernel/", b"include/linux/", b"net/ipv4/", b"block/"]
_CONFIG_ITEMS = [b"DEBUG", b"SMP", b"PREEMPT", b"NUMA", b"TRACE", b"PM",
                 b"HOTPLUG", b"MODULES", b"AUDIT", b"SECCOMP"]


def ustar_header(name: bytes, size: int) -> bytes:
    """A valid 512-byte ustar file header, mtime fixed in March 2011."""
    h = bytearray(512)
    h[0:len(name)] = name[:100]
    h[100:108] = b"0000644\x00"
    h[108:116] = b"0000000\x00"
    h[116:124] = b"0000000\x00"
    h[124:136] = b"%011o\x00" % size
    h[136:148] = b"%011o\x00" % 1300000000
    h[148:156] = b" " * 8  # checksum field counted as spaces
    h[156] = ord("0")  # regular file
    h[257:263] = b"ustar\x00"
    h[263:265] = b"00"
    checksum = sum(h)
    h[148:156] = b"%06o\x00 " % checksum
    return bytes(h)


def _header_file(rng: np.random.Generator, size: int, seed: int) -> bytes:
    out = bytearray(b"#ifndef _LINUX_GEN_H\n#define _LINUX_GEN_H\n\n")
    while len(out) < size:
        name = _CONFIG_ITEMS[int(rng.integers(len(_CONFIG_ITEMS)))]
        out.extend(b"#define %s_%03d 0x%04x\n"
                   % (name, int(rng.integers(0, 512)),
                      int(rng.integers(0, 1 << 16))))
    out.extend(b"\n#endif\n")
    return bytes(out[:size])


def _makefile(rng: np.random.Generator, size: int) -> bytes:
    out = bytearray(b"# SPDX-License-Identifier: GPL-2.0\n")
    while len(out) < size:
        obj = b"mod_%03d" % int(rng.integers(0, 512))
        out.extend(b"obj-$(CONFIG_%s) += %s.o\n"
                   % (_CONFIG_ITEMS[int(rng.integers(len(_CONFIG_ITEMS)))], obj))
    return bytes(out[:size])


def _firmware_blob(rng: np.random.Generator, size: int) -> bytes:
    """Firmware / pre-built object blob: mostly incompressible machine
    code and data with short zero-padded sections — the binary fraction
    every real kernel tree drags along."""
    out = bytearray()
    while len(out) < size:
        if rng.random() < 0.18:
            out.extend(b"\x00" * int(rng.integers(16, 96)))
        else:
            n = int(rng.integers(80, 400))
            out.extend(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
    return bytes(out[:size])


def generate_kernel_tarball(size: int, seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    out = bytearray()
    member = 0
    while len(out) < size:
        member += 1
        kind = int(rng.integers(0, 12))
        d = _DIRS[int(rng.integers(len(_DIRS)))]
        if kind < 6:
            name = d + b"gen_%04d.c" % member
            body = generate_cfiles(int(rng.integers(8000, 64000)),
                                   seed + member)
        elif kind < 8:
            name = d + b"gen_%04d.h" % member
            body = _header_file(rng, int(rng.integers(2000, 12000)), seed)
        elif kind < 9:
            name = d + b"Makefile"
            body = _makefile(rng, int(rng.integers(400, 2000)))
        else:
            name = d + b"fw_%04d.bin" % member
            body = _firmware_blob(rng, int(rng.integers(6000, 24000)))
        out.extend(ustar_header(name, len(body)))
        out.extend(body)
        pad = (-len(body)) % 512
        out.extend(b"\x00" * pad)
    return bytes(out[:size])
