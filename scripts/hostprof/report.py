#!/usr/bin/env python3
"""Turns a hostprof sample file into a top-down tree, or a self-time table.

    report.py SAMPLES [--min-pct P] [--self | --peak | --lines FRAME] [--under FRAME]

SAMPLES is what the hostprof shim wrote: the process's memory map (`M`
lines), where memcpy and memmove resolved to (`C`), its peak resident set
in KB when the shim started (`R`) and one raw stack per SIGPROF (`S` lines:
the peak resident set so far, then the stack, innermost frame first).
Addresses are resolved with `addr2line -f -C -i`, return addresses at `pc - 1` so that a call in the last
instruction of a function is not charged to the next one. The tree keeps this repository's frames (`nob_*::` and
`noblsm::` paths) and hangs one synthetic leaf under them when the sample
was taken inside the allocator or a memory copy: `[malloc]`, `[free]`,
`[realloc]`, `[memcpy]`. A distribution's libc has no symbol table, so its
frames are named by the nearest exported symbol: right for the allocator's
entry points, which is all the leaves need, and wrong for its internals —
hence the copy routines are recognised by address instead. Every line is
inclusive: the share of all samples taken in that function or anything it
called. Inlined frames only show when the binary carries line tables
(`CARGO_PROFILE_RELEASE_DEBUG=line-tables-only`).

With `--self` the tree becomes a flat table: every sample counted once, under
its innermost repository frame and the leaf below it, if any
(`nob_ext4::fs::Ext4Fs::append [memcpy]`): where the time is spent, not who
asked for it. Samples with no repository frame on their stack are counted
under `(outside this repository)`.

With `--lines FRAME` the table narrows to FRAME's own samples, those
whose innermost repository frame names FRAME (the samples `--self` counts
under it), and groups them by the innermost `file:line` of that frame's
address, leaf included (`library/alloc/src/raw_vec/mod.rs:433 [malloc]`). With
line tables that line is often in code the compiler inlined into FRAME — a
`Vec::push`, a `?`'s conversion — which is the point: it splits one
function's self time by what it does. Shares are of FRAME's samples.

With `--peak` the table ranks repository functions by how far the process's
peak resident set (`ru_maxrss`) rose while they were on the stack: each
sample is charged the rise since the one before it, and every distinct
function on its stack gets that charge once. The top lines name the phases
that set the peak. Only a new mark counts: memory a phase allocates and
keeps shows where it pushed the mark up, and otherwise as a higher floor for
the phases after it. A rise is charged to the thread the timer interrupted,
so with several busy threads a line can hold another thread's rise.

`--under FRAME` keeps only the samples whose stack passes through a function
whose name contains FRAME, and gives every share, in the tree or the table,
of those samples: `--under '::timed'` leaves a ledger workload's setup out,
`--under 'Db>::get'` keeps the engine's GETs (a method of `Db` resolves as
`noblsm::db::read::<impl noblsm::db::Db>::get`).
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

OURS = re.compile(r"\b(nob_\w+|noblsm)::")
COPY_SPAN = 0x800  # the vector memmove implementations are under 1 KiB
HASH = re.compile(r"::h[0-9a-f]{16}$")
LEAVES = (
    ("[realloc]", re.compile(r"realloc")),
    ("[malloc]", re.compile(r"malloc|calloc|memalign")),
    ("[free]", re.compile(r"^(cfree|free|__libc_free|_int_free)")),
    ("[memcpy]", re.compile(r"memcpy|memmove")),
)


def load(path):
    """-> executable mappings, each object's load address, stacks, copy routines,
    the starting peak RSS and the peak RSS at each sample (KB)"""
    maps, bases, stacks, copies, start, peaks = [], {}, [], set(), 0, []
    with open(path) as f:
        for line in f:
            kind, *fields = line.split()
            if kind == "C":
                copies = {int(x, 16) for x in fields}
            elif kind == "R":
                start = int(fields[0])
            elif kind == "S":
                peaks.append(int(fields[0]))
                stacks.append([int(x, 16) for x in fields[1:]])
            elif kind == "M" and len(fields) >= 6:
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                obj = fields[5]
                # An object is loaded at its lowest mapping, executable or not.
                bases[obj] = min(lo, bases.get(obj, lo))
                if "x" in fields[1]:
                    maps.append((lo, hi, obj))
    return sorted(maps), bases, stacks, copies, start, peaks


def is_pie(path):
    with open(path, "rb") as f:
        return f.read(18)[16] == 3  # e_type == ET_DYN


def short(where):
    """A repository or toolchain path relative to its root, without addr2line's
    discriminator note."""
    where = where.split(" (discriminator")[0]
    return re.sub(r"^.*?/(?=(crates|bench|shims|src|tests|library)/)", "", where)


def resolve(by_object):
    """{object: {vaddr}} -> ({(object, vaddr): [outermost .. innermost function]},
    {(object, vaddr): innermost file:line})"""
    names, lines = {}, {}
    for obj, vaddrs in by_object.items():
        vaddrs = sorted(vaddrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
            input="".join(f"{v:#x}\n" for v in vaddrs),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        current = None
        # `-a` prints the address, then a (function, file:line) pair per
        # inlining level, innermost first.
        for i, line in enumerate(out):
            if line.startswith("0x"):
                at = (obj, int(line, 16))
                current = names.setdefault(at, [])
                start = i + 1
            elif (i - start) % 2 == 0:
                current.insert(0, HASH.sub("", line))
            elif i == start + 1:
                lines[at] = short(line)
    return names, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--min-pct", type=float, default=1.0, help="hide lines below this share")
    view = ap.add_mutually_exclusive_group()
    view.add_argument("--self", action="store_true", help="flat self-time table instead of the tree")
    view.add_argument("--peak", action="store_true", help="rank functions by peak-RSS rise")
    view.add_argument("--lines", metavar="FRAME", help="FRAME's self samples by file:line")
    ap.add_argument("--under", metavar="FRAME", help="only samples with a frame naming FRAME")
    args = ap.parse_args()

    maps, bases, stacks, copies, start, peaks = load(args.samples)
    starts = [m[0] for m in maps]
    pie = {}

    def locate(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1] or not maps[i][2].startswith("/"):
            return None
        obj = maps[i][2]
        if obj not in pie:
            pie[obj] = is_pie(obj)
        return obj, addr - bases[obj] if pie[obj] else addr

    # Frames of one sample: the handler, the signal trampoline, the
    # interrupted pc, then return addresses.
    located, by_object = [], collections.defaultdict(set)
    for stack in stacks:
        frames = []
        for depth, addr in enumerate(stack[2:]):
            at = locate(addr - (1 if depth else 0))
            if any(0 <= addr - c < COPY_SPAN for c in copies):
                frames.append("memcpy")
            elif at:
                frames.append(at)
                by_object[at[0]].add(at[1])
        located.append(frames)
    names, lines = resolve(by_object)

    tree = lambda: [0, collections.defaultdict(tree)]  # noqa: E731
    root = tree()
    flat, by_line = collections.Counter(), collections.Counter()
    rises, rose, high = collections.Counter(), 0, start
    for frames, peak in zip(located, peaks):
        rise, high = max(0, peak - high), max(high, peak)
        funcs_of = [[at] if at == "memcpy" else names.get(at, ["??"]) for at in frames]
        if args.under and not any(args.under in f for funcs in funcs_of for f in funcs):
            continue
        for name in {f for funcs in funcs_of for f in funcs if OURS.search(f)}:
            rises[name] += rise
        rose += rise
        path, leaf, self_at = [], None, None
        for at, funcs in zip(frames, funcs_of):  # innermost first
            ours = [f for f in funcs if OURS.search(f)]
            if ours and not path:
                self_at = at
            if not ours and not path:
                # Still above our code: an allocator or copy frame names the leaf;
                # the outermost such frame wins (malloc called by realloc is realloc).
                for label, pattern in LEAVES:
                    if any(pattern.search(f) for f in funcs):
                        leaf = label
                        break
            path[:0] = ours
        if path:
            flat[path[-1] + (f" {leaf}" if leaf else "")] += 1
            if args.lines and args.lines in path[-1]:
                by_line[lines.get(self_at, "??") + (f" {leaf}" if leaf else "")] += 1
        else:
            flat["(outside this repository)"] += 1
        node = root
        node[0] += 1
        for name in path + ([leaf] if leaf and path else []):
            node = node[1][name]
            node[0] += 1

    total = root[0]
    if args.under:
        print(f"{total} of {len(located)} samples pass through a frame naming `{args.under}`")
        if not total:
            return
    if args.peak:
        print(
            f"peak RSS {high / 1024:.1f} MB ({start / 1024:.1f} MB at start); it rose "
            f"{rose / 1024:.1f} MB during {total} samples; rise while each function was on "
            f"the stack, lines under {args.min_pct} % of that hidden"
        )
        for name, kb in rises.most_common():
            if rose and 100.0 * kb / rose >= args.min_pct:
                print(f"{kb:9d} KB {100.0 * kb / rose:6.1f} %  {name}")
        return
    if args.lines:
        own = sum(by_line.values())
        print(
            f"{own} of {total} samples are self samples of a frame naming `{args.lines}`; "
            f"share of those by innermost file:line, lines under {args.min_pct} % hidden"
        )
        for where, n in by_line.most_common():
            if 100.0 * n / own >= args.min_pct:
                print(f"{100.0 * n / own:6.1f} %  {where}")
        return
    if args.self:
        print(f"{total} samples; self share of all of them, lines under {args.min_pct} % hidden")
        for name, n in flat.most_common():
            if 100.0 * n / total >= args.min_pct:
                print(f"{100.0 * n / total:6.1f} %  {name}")
        return
    print(f"{total} samples; inclusive share of all of them, lines under {args.min_pct} % hidden")

    def show(node, depth):
        for name, child in sorted(node[1].items(), key=lambda kv: -kv[1][0]):
            pct = 100.0 * child[0] / total
            if pct >= args.min_pct:
                print(f"{pct:6.1f} %  {'  ' * depth}{name}")
                show(child, depth + 1)

    if total:
        show(root, 0)


if __name__ == "__main__":
    sys.exit(main())
