#!/usr/bin/env python3
"""Fails when an AVX2 gather merges into a register live into its block.

    python3 tools/check_gather_deps.py OBJECT_OR_ARCHIVE
    python3 tools/check_gather_deps.py --listing OBJDUMP_OUTPUT

`vpgather*` writes its destination only in the lanes its mask selects, so
it reads that register first. When the register was last written in an
earlier iteration of a loop, every gather waits for the previous one (a
loop-carried dependency) instead of overlapping with it. The check
disassembles the file (`objdump -d`, AT&T syntax), splits each function
into blocks at jump targets, and flags every gather whose destination
register is not written by an earlier non-gather instruction of its own
block. A block that no jump enters is reached only by falling through the
instructions before it, so any such write covers every path.

--listing reads a saved `objdump -d` listing instead of running objdump.

Exit codes: 0 no gather merges into a live-in register; 1 at least one
does (each is named with its function and address); 2 usage or objdump
error; 77 skipped (objdump missing).
"""

import argparse
import re
import shutil
import subprocess
import sys

SKIP = 77

FUNCTION = re.compile(r"^([0-9a-f]+) <(.+)>:$")
INSN = re.compile(r"^\s*([0-9a-f]+):\s+(?:(?:[0-9a-f]{2} )+\s*)?(\S.*)$")
JUMP = re.compile(r"^(j[a-z]+|loop\w*)\s+([0-9a-f]+)\b")
VREG = re.compile(r"^%[xyz]mm(\d+)$")
# Instructions whose last AT&T operand is a source, not a destination.
READS_ONLY = {"vptest", "vtestps", "vtestpd", "vucomiss", "vucomisd",
              "vcomiss", "vcomisd", "ptest", "ucomiss", "ucomisd",
              "comiss", "comisd"}


def parse(listing):
    """Yields (function, start, [(address, mnemonic, operands)])."""
    name, start, insns = None, 0, []
    for line in listing.splitlines():
        m = FUNCTION.match(line)
        if m:
            if name is not None:
                yield name, start, insns
            name, start, insns = m.group(2), int(m.group(1), 16), []
            continue
        m = INSN.match(line)
        if m is None or name is None:
            continue
        text = m.group(2).split("#")[0].strip()
        if not text or text.startswith("("):
            continue
        parts = text.split(None, 1)
        insns.append((int(m.group(1), 16), parts[0],
                      parts[1] if len(parts) > 1 else ""))
    if name is not None:
        yield name, start, insns


def vector_dest(mnemonic, ops):
    """The vector register number an instruction writes, or None."""
    if mnemonic in READS_ONLY or not ops:
        return None
    # A memory operand's last comma-separated piece ("4)") never matches.
    m = VREG.match(ops.rsplit(",", 1)[-1].strip())
    return int(m.group(1)) if m else None


def check(listing):
    """Returns (gathers seen, [(function+offset, address, instruction)])."""
    total, flagged = 0, []
    for name, start, insns in parse(listing):
        targets = set()
        for _, mnemonic, ops in insns:
            m = JUMP.match(f"{mnemonic} {ops}")
            if m:
                targets.add(int(m.group(2), 16))
        written = set()
        for address, mnemonic, ops in insns:
            if address in targets:
                written = set()
            dest = vector_dest(mnemonic, ops)
            if dest is None:
                continue
            if mnemonic.startswith(("vpgather", "vgather")):
                total += 1
                if dest not in written:
                    flagged.append((f"{name}+{address - start:#x}", address,
                                    f"{mnemonic} {ops}"))
                # A gather's result is no fresh destination for the next
                # gather: merging into it would wait for this one.
                written.discard(dest)
            else:
                written.add(dest)
    return total, flagged


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("object", nargs="?", help="object file or archive")
    ap.add_argument("--listing", help="a saved `objdump -d` listing")
    args = ap.parse_args()
    if bool(args.object) == bool(args.listing):
        ap.print_usage(sys.stderr)
        print("check_gather_deps: give one OBJECT or --listing",
              file=sys.stderr)
        return 2
    if args.listing:
        with open(args.listing) as f:
            listing = f.read()
    else:
        if shutil.which("objdump") is None:
            print("check_gather_deps: skipped: objdump not found")
            return SKIP
        r = subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn",
                            args.object], capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            return 2
        listing = r.stdout
    total, flagged = check(listing)
    for where, address, insn in flagged:
        print(f"{where} at {address:#x}: {insn}: destination not written "
              f"earlier in its block")
    print(f"check_gather_deps: {len(flagged)} of {total} gathers merge into "
          f"a live-in register")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
