#!/usr/bin/env python3
"""Inspect and repair a dynsld durability directory (WAL segments +
checkpoints) without the engine.

The on-disk formats are fixed and documented in docs/DURABILITY.md:

  wal-<epoch%020d>.log   "DSLDWAL1" u32 version | records:
                         u32 payload_len, u32 crc32c(payload), payload
                         payload = u64 epoch, u32 n_ins, u32 n_era,
                                   ins{u64 ticket,u32 u,u32 v,f64 w}*,
                                   era{u64 ticket,u32 u,u32 v}*
  ckpt-<epoch%020d>.bin  "DSLDCKP1" u32 version, u32 payload_len,
                         u32 crc32c(payload), payload

Everything is little-endian; CRC-32C (Castagnoli).

Usage:

  python3 tools/walctl.py list <dir>
      One line per file: name, size, epoch range, record/edge counts,
      and validation status (OK / TORN at byte N / CORRUPT).

  python3 tools/walctl.py verify <dir>
      Re-checks every CRC in every file. Exit 0 when all clean, 1 when
      any segment is torn or any checkpoint corrupt.

  python3 tools/walctl.py cat <dir>/wal-....log
      Dump each record (epoch, inserts, erases) as JSON lines.

  python3 tools/walctl.py truncate --truncate-torn-tail <dir>
      Truncate every torn segment back to its last valid record
      boundary (what recover() would do). Prints what was cut.
      Refuses to touch anything without the explicit flag.
"""

import argparse
import json
import os
import re
import struct
import sys

WAL_MAGIC = b"DSLDWAL1"
CKPT_MAGIC = b"DSLDCKP1"
# Header versions the engine writes (kVersion in src/persist/wal.cpp
# and src/persist/checkpoint.cpp); the engine reads no other.
WAL_VERSION = 1
CKPT_VERSION = 2
WAL_RE = re.compile(r"^wal-(\d{20})\.log$")
CKPT_RE = re.compile(r"^ckpt-(\d{20})\.bin$")

# CRC-32C (Castagnoli, reflected poly 0x82F63B78), matching
# src/persist/crc32c.hpp bit for bit.
_TABLE = []
for _n in range(256):
    _c = _n
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _TABLE.append(_c)


def crc32c(data, seed=0):
    crc = seed ^ 0xFFFFFFFF
    for b in data:
        crc = _TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


class Scan:
    """Result of walking one WAL segment."""

    def __init__(self):
        self.records = []     # (epoch, n_inserts, n_erases)
        self.valid_bytes = 0  # resumable prefix length
        self.torn = False
        self.error = None     # header-level problem (not a tear)


def scan_wal(data):
    s = Scan()
    if len(data) < 12 or data[:8] != WAL_MAGIC:
        s.error = "bad or missing segment header"
        return s
    (version,) = struct.unpack_from("<I", data, 8)
    if version != WAL_VERSION:
        s.error = f"unsupported WAL version {version}"
        return s
    off = 12
    s.valid_bytes = off
    while off < len(data):
        if off + 8 > len(data):
            s.torn = True
            return s
        length, crc = struct.unpack_from("<II", data, off)
        payload = data[off + 8 : off + 8 + length]
        if len(payload) < length or crc32c(payload) != crc:
            s.torn = True
            return s
        rec = parse_record(payload)
        if rec is None:
            s.torn = True
            return s
        s.records.append(rec)
        off += 8 + length
        s.valid_bytes = off
    return s


def parse_record(payload):
    """(epoch, inserts, erases) or None when the payload is malformed."""
    if len(payload) < 16:
        return None
    epoch, n_ins, n_era = struct.unpack_from("<QII", payload, 0)
    need = 16 + n_ins * 24 + n_era * 16
    if len(payload) != need:
        return None
    inserts, erases = [], []
    off = 16
    for _ in range(n_ins):
        t, u, v, w = struct.unpack_from("<QIId", payload, off)
        inserts.append({"ticket": t, "u": u, "v": v, "w": w})
        off += 24
    for _ in range(n_era):
        t, u, v = struct.unpack_from("<QII", payload, off)
        erases.append({"ticket": t, "u": u, "v": v})
        off += 16
    return epoch, inserts, erases


def check_ckpt(data):
    """None when valid, else a reason string."""
    if len(data) < 20 or data[:8] != CKPT_MAGIC:
        return "bad or missing checkpoint header"
    version, length, crc = struct.unpack_from("<III", data, 8)
    if version != CKPT_VERSION:
        return f"unsupported checkpoint version {version}"
    payload = data[20 : 20 + length]
    if len(payload) != length or len(data) != 20 + length:
        return "size mismatch"
    if crc32c(payload) != crc:
        return "CRC mismatch"
    return None


def durable_files(dirpath):
    segs, ckpts = [], []
    try:
        names = sorted(os.listdir(dirpath))
    except OSError as e:
        sys.exit(f"walctl: {e}")
    for name in names:
        if WAL_RE.match(name):
            segs.append(name)
        elif CKPT_RE.match(name):
            ckpts.append(name)
    return segs, ckpts


def describe_seg(dirpath, name):
    with open(os.path.join(dirpath, name), "rb") as f:
        data = f.read()
    s = scan_wal(data)
    if s.error:
        status = f"CORRUPT ({s.error})"
    elif s.torn:
        status = f"TORN at byte {s.valid_bytes}"
    else:
        status = "OK"
    epochs = [r[0] for r in s.records]
    span = f"epochs {epochs[0]}..{epochs[-1]}" if epochs else "empty"
    ops = sum(len(r[1]) + len(r[2]) for r in s.records)
    return s, (f"{name}  {len(data):>10} B  {span:<24} "
               f"{len(s.records):>5} rec {ops:>6} ops  {status}")


def describe_ckpt(dirpath, name):
    with open(os.path.join(dirpath, name), "rb") as f:
        data = f.read()
    reason = check_ckpt(data)
    status = "OK" if reason is None else f"CORRUPT ({reason})"
    epoch = int(CKPT_RE.match(name).group(1))
    return reason, (f"{name}  {len(data):>10} B  epoch {epoch:<18} "
                    f"{'':>16} {status}")


def cmd_list(args):
    segs, ckpts = durable_files(args.dir)
    dirty = False
    for name in ckpts:
        reason, line = describe_ckpt(args.dir, name)
        dirty |= reason is not None
        print(line)
    for name in segs:
        s, line = describe_seg(args.dir, name)
        dirty |= s.torn or s.error is not None
        print(line)
    if not segs and not ckpts:
        print(f"{args.dir}: no durable state")
    return 1 if dirty else 0


def cmd_verify(args):
    rc = cmd_list(args)
    print("DIRTY" if rc else "CLEAN")
    return rc


def cmd_cat(args):
    with open(args.file, "rb") as f:
        data = f.read()
    s = scan_wal(data)
    if s.error:
        sys.exit(f"{args.file}: {s.error}")
    for epoch, inserts, erases in s.records:
        print(json.dumps({"epoch": epoch, "inserts": inserts,
                          "erases": erases}))
    if s.torn:
        print(f"# torn tail after byte {s.valid_bytes}", file=sys.stderr)
        return 1
    return 0


def cmd_truncate(args):
    if not args.truncate_torn_tail:
        sys.exit("walctl: truncate requires the explicit "
                 "--truncate-torn-tail flag (it rewrites files)")
    segs, _ = durable_files(args.dir)
    for name in segs:
        path = os.path.join(args.dir, name)
        with open(path, "rb") as f:
            data = f.read()
        s = scan_wal(data)
        if s.error:
            print(f"{name}: {s.error} — left alone (recover() drops it)")
            continue
        if not s.torn:
            continue
        with open(path, "r+b") as f:
            f.truncate(s.valid_bytes)
        print(f"{name}: truncated {len(data) - s.valid_bytes} B of torn "
              f"tail (now {s.valid_bytes} B, {len(s.records)} records)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("list", help="list and validate durable files")
    sp.add_argument("dir")
    sp.set_defaults(fn=cmd_list)
    sp = sub.add_parser("verify", help="exit non-zero on any corruption")
    sp.add_argument("dir")
    sp.set_defaults(fn=cmd_verify)
    sp = sub.add_parser("cat", help="dump a segment's records as JSON lines")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_cat)
    sp = sub.add_parser("truncate", help="cut torn tails back to a record "
                        "boundary")
    sp.add_argument("dir")
    sp.add_argument("--truncate-torn-tail", action="store_true")
    sp.set_defaults(fn=cmd_truncate)
    args = p.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
