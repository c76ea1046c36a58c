#!/usr/bin/env python3
"""Check the ownership contract (DESIGN.md §7.x) on compiled objects.

    tools/contract_check.py --root DIR FILE...

Each FILE is an object built with -g from sources named by absolute
path. A rule covers the code and declarations of DIR's src/ and tools/,
whichever object holds them. Exit status: 0 clean, 1 findings, 2 a
usage or IO error, such as a missing file or one without .debug_info.
"""

import argparse
import bisect
import itertools
import os
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from subprocess import DEVNULL, PIPE

# The rules' inputs, relative to --root. A deliberate exception is an
# entry here, reviewed as code; no source comment suppresses a finding.
SCAN_DIRS = ("src/", "tools/")  # every rule
SIM_DIR = "src/"  # R6 and R8: one System of this code per sweep job

# R5 hygiene: a naked `new`, and the nondeterminism sources: libc
# randomness, wall clocks and the environment would make a run depend
# on the host instead of its config and seed. Each name maps to the
# functions it calls. A `new` is naked when the innermost line of its
# call is in the tree (make_unique's is libstdc++'s); any other call is
# reported at the innermost tree line that inlines it.
BANNED = {
    "new": ("operator new", "operator new[]"),
    "random_device": ("std::random_device::_M_init",
                      "std::random_device::_M_getval"),
    # libstdc++ makes high_resolution_clock an alias of system_clock.
    **{c: (f"std::chrono::_V2::{c}::now",) for c in (
        "system_clock", "steady_clock", "high_resolution_clock")},
    **{f: (f,) for f in ("rand", "srand", "drand48", "gettimeofday",
                         "clock_gettime", "getenv")},
}
# Reading MTLBSIM_DEBUG selects stderr logging, never simulated behaviour.
BANNED_EXEMPTIONS = {("getenv", "src/base/debug.cc")}

# R6 no-mutable-global-state: no object in a writable section may be
# declared in SIM_DIR. Every System is self-contained, so no state may
# outlive or span Systems, nor be thread_local: a sweep worker runs one
# System after another. constexpr and const POD data are read-only; a
# const global that is not POD is written by its constructor. In
# .data.rel.ro an optimising compiler also places mutable objects it
# sees are never written, so there the declared type decides. The one
# exemption is the debug-trace mask: set from MTLBSIM_DEBUG on first
# use, then only read; it selects stderr logging, never behaviour.
GLOBAL_EXEMPTIONS = {"mtlbsim::debug::enabled(mtlbsim::debug::Flag)::selected"}

# R7 ownership-escape: a raw pointer or reference member to a
# System-owned component may only live in a class a System owns (the
# wiring its constructor set up); anywhere else it is an alias that
# goes stale the moment a second System exists. A lambda's captures
# (members named __*) are the closure's, not a class's.
OWNED_TYPES = {"System", "Kernel", "FrameAllocator", "Tlb", "MicroItlb",
               "Mtlb", "ShadowTable", "Cache", "MemorySystem",
               "AddressSpace", "Hpt", "StatGroup"}
OWNER_CLASSES = {"System", "Kernel", "Cpu", "Mtlb", "ClockDaemon",
                 "TranslationAuditor",
                 "CoreCtx",  # Kernel's per-core wiring record (os/kernel.hh)
                 "TranslationEdit"}  # a kernel call's open edit, on its stack

# R8 lock-discipline: a variable, member or parameter whose type names
# a lock or an atomic lives in LOCKED_DIR only, and so does a call of
# FENCE, which declares nothing. The sweep runs one System per worker
# thread, so the rest of SIM_DIR is single-threaded by contract and
# must never need (or pay for) synchronisation.
LOCKED_DIR = "src/sweep/"
FENCE = "atomic_thread_fence"  # always inlined; calls read where it is named
LOCK_NAMES = {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
              "lock_guard", "unique_lock", "shared_lock", "scoped_lock",
              "condition_variable", "atomic", "atomic_flag", FENCE}

# R9 no-hash-ordered-state: no variable or member whose type names one
# of these, or a map/multimap keyed by a pointer (allocation order),
# iterated or not. Then no stat, hook or dump can follow hash order,
# which byte-identical --jobs N sweeps need.
UNORDERED = {f"unordered_{c}" for c in ("map", "set", "multimap", "multiset")}
POINTER_KEY = re.compile(
    r"(?<!\w)(?:multi)?map<(?:[^<>,]|<(?:[^<>]|<[^<>]*>)*>)*\*\s*,")

CALLEES = {c: name for name, cs in BANNED.items() for c in cs}
# What a type entry adds to the spelling of the type it refers to.
SUFFIX = {"pointer_type": " *", "reference_type": " &", "array_type": "[]",
          "rvalue_reference_type": " &&", "typedef": "", "const_type": "",
          "volatile_type": ""}
# The DWARF entries the rules read: declarations, the types they name,
# inlined calls and their functions. An entry lists its tag, its parent
# (read for a member: its class) and a slot per attribute below (a call's
# file and line are its site's) that LINES picks out of readelf's dump.
CALL = "inlined_subroutine"
DECLS = ("member", "variable", "formal_parameter", CALL)
TAGS = tuple(f"_{t})" for t in (*SUFFIX, *DECLS[:2], "structure_type",
                                "class_type", "union_type", "base_type"))
CALL_TAGS, PARAM = (f"_{CALL})", "_subprogram)"), "_formal_parameter)"
SLOTS = dict(name=2, type=3, decl_file=4, call_file=4, decl_line=5,
             call_line=5, specification=6, abstract_origin=6, location=7)
LINES = ("(DW_TAG_", *(f"DW_AT_{a}" for a in SLOTS if a != "location"),
         "DW_OP_addr:", "tls_address")


def output(cmd, grep):
    """What @p cmd prints on the lines that hold a @p grep string."""
    with subprocess.Popen(cmd, stdout=PIPE, stderr=DEVNULL) as p:
        out = subprocess.run(["grep", "-F", *(f"-e{g}" for g in grep)],
                             stdin=p.stdout, capture_output=True, text=True)
    if p.returncode:
        raise OSError(f"{cmd[0]} cannot read {cmd[-1]}")
    return out.stdout


class Obj:
    """One object: its DWARF entries and the tree files they name."""

    def __init__(self, path, root):
        self.path, self.root, self.rels = path, root, {}
        self.files, self.dies, self.parents = self.file_table(), {}, {}
        text = output(["readelf", "--debug-dump=info", path], LINES)
        tags = TAGS + CALL_TAGS if FENCE in text else TAGS
        die = param = None
        for line in text.splitlines():
            if line[1] == "<":  # a new entry; an unnamed parameter (95%)
                die = None      # declares nothing for a rule to report
                param = line if line.endswith(PARAM) else None
                if not param and line.endswith(tags):
                    die = self.entry(line)
                continue
            if param and "DW_AT_name" in line:
                die, param = self.entry(param), None
            if die is not None:
                _, key, val = line.split(None, 2)
                slot = SLOTS.get(key.rstrip(":")[6:])
                if slot == 2:
                    die[2] = val.rsplit(": ", 1)[-1]
                elif slot == 7:  # readelf leaves a TLS offset unrelocated
                    addr = re.search(r"DW_OP_addr: (\w+)", val)
                    die[7] = int(addr[1], 16) if addr else "tls"
                elif slot:  # a number, or a reference <0x...>
                    die[slot] = int(val.split()[-1].strip("<>"), 0)
        if not self.dies:
            raise ValueError(f"{path}: no .debug_info (build with -g)")

    def entry(self, line):
        """Record and return the entry that @p line opens."""
        depth, off, rest = line[2:].split(">", 2)
        self.parents[int(depth)] = off = int(off[1:], 16)
        die = self.dies[off] = [rest[rest.index("DW_TAG_") + 7:-1],
                                self.parents.get(int(depth) - 1), *[None] * 6]
        return die

    def rel(self, path):
        """@p path relative to the root, or "" outside it."""
        if path not in self.rels:
            rel = os.path.relpath(os.path.realpath(path), self.root)
            self.rels[path] = "" if rel.startswith("..") else rel
        return self.rels[path]

    def file_table(self):
        """The line table's files, tree-relative or "", by index."""
        with subprocess.Popen(["readelf", "--debug-dump=line", self.path],
                              stdout=PIPE, stderr=DEVNULL, text=True) as p:
            head = "".join(itertools.takewhile(  # stop before the program
                lambda line: "Line Number Statements" not in line, p.stdout))
        dirs, _, files = head.partition("The File Name Table")
        entry = r"^\s+(\d+)\t(?:(\d+)\t)?(?:\(.*?\): )?(.+)$"
        dirs = {i: d for i, _, d in re.findall(entry, dirs, re.M)}
        # A relative directory is relative to entry 0, the compilation's.
        return {int(i): self.rel(os.path.join(dirs["0"], dirs[d], f))
                for i, d, f in re.findall(entry, files, re.M)}

    def line_rows(self):
        """The line table's rows by section: (address, file, line), from
        readelf's raw dump, each sequence placed in the section that its
        set-address relocation names."""
        relocs, in_line = {}, False
        for line in output(["readelf", "-rW", self.path],
                           ("Relocation section", "R_X86_64_64")).splitlines():
            if line.startswith("Relocation section"):
                in_line = "'.rela.debug_line'" in line
            elif in_line:
                fields = line.split()
                relocs[int(fields[0], 16)] = fields[4]
        rows, rows_of = {}, None
        file, num = 1, 1
        for line in output(["readelf", "--debug-dump=rawline", self.path],
                           ("set Address", "Special", "Advance", "Copy",
                            "Set File", "End of Seq")).splitlines():
            m = re.match(r"\s*\[0x(\w+)\]\s+(.*)", line)
            if not m:
                continue
            op, last = m[2], m[2].split(" (view")[0].split()[-1]
            if "set Address" in op:  # the operand follows 3 opcode bytes
                rows_of = rows.setdefault(relocs.get(int(m[1], 16) + 3), [])
                addr = int(last, 16)
            elif op.startswith("Special"):
                special = re.search(r"to (\w+) and Line by \S+ to (\d+)", op)
                addr, num = int(special[1], 16), int(special[2])
                rows_of.append((addr, file, num))
            elif op.startswith("Advance PC"):
                addr = int(last, 16)
            elif op.startswith("Advance Line"):
                num = int(last)
            elif op.startswith("Set File"):
                file = int(op.split()[5])
            elif op.startswith("Copy"):
                rows_of.append((addr, file, num))
            elif "End of Seq" in op:
                file, num = 1, 1
        return {sec: sorted(r, key=lambda row: row[0])
                for sec, r in rows.items()}

    def line_at(self, rows, section, addr):
        """(tree-relative file, line) of the last row at or before @p addr
        in @p section, or None."""
        at = rows.get(section, [])
        i = bisect.bisect_right(at, addr, key=lambda row: row[0])
        return (self.files.get(at[i - 1][1], ""), at[i - 1][2]) if i else None

    def decl(self, die):
        """(tree-relative file, line) of @p die's declaration or call."""
        die = die if die[0] == CALL else self.dies.get(die[6], die)
        return self.files.get(die[4], ""), die[5]

    def name(self, die):
        """@p die's name, or that of the entry it defines or inlines."""
        while die[2] is None and die[6] in self.dies:
            die = self.dies[die[6]]
        return die[2]

    def spell(self, off):
        """Type @p off, spelled past every typedef and cv-qualifier."""
        t = self.dies.get(off) or ["", None, "void", None]
        return self.spell(t[3]) + SUFFIX[t[0]] if t[0] in SUFFIX \
            else t[2] or "?"


def check_types(o, out):
    """R7-R9 over @p o's members, variables, parameters and calls."""
    for die in o.dies.values():
        tag, parent, name, typ = die[:4]
        rel, line = o.decl(die) if tag in DECLS else ("", 0)
        if not rel.startswith(SCAN_DIRS) or typ is None and tag != CALL:
            continue
        spelled = o.name(die) or "?" if tag == CALL else o.spell(typ)
        what = (f"a call of '{spelled}'" if tag == CALL else
                f"'{name}' has type '{spelled[:60]}'")
        words = set(re.findall(r"\w+", spelled))
        cls = (o.dies[parent][2] or "<anonymous>") if parent else ""
        borrowed = re.fullmatch(r"(\w+) (\*|&|&&)", spelled)
        if (tag == "member" and borrowed and borrowed[1] in OWNED_TYPES
                and not (name or "").startswith("__")
                and cls.split("<")[0] not in OWNER_CLASSES):
            out.add((rel, line, "R7 ownership-escape", f"class '{cls}' "
                     f"holds '{spelled}' ('{name}'), a raw alias of a System "
                     "component that only OWNER_CLASSES may hold"))
        locks = words & ({FENCE} if tag == CALL else LOCK_NAMES)
        if (locks and rel.startswith(SIM_DIR)
                and not rel.startswith(LOCKED_DIR)):
            out.add((rel, line, "R8 lock-discipline",
                     f"{what}, naming '{min(locks)}' outside src/sweep: "
                     "the simulator is single-threaded"))
        hashed = words & UNORDERED
        if tag in ("member", "variable") and (
                hashed or POINTER_KEY.search(spelled)):
            out.add((rel, line, "R9 no-hash-ordered-state", f"{what}, which "
                     f"iterates in {'hash' if hashed else 'allocation'} "
                     "order; use an ordered container keyed by a stable id"))


def declared_const(o, die):
    """True when @p die's object, or each element of its array, is const."""
    t = o.dies.get(o.dies.get(die[6], die)[3] if die[3] is None else die[3])
    while t and t[0] in ("typedef", "volatile_type", "array_type"):
        t = o.dies.get(t[3])
    return bool(t) and t[0] == "const_type"


def check_globals(o, out):
    """R6 over @p o's symbol table: objects in writable sections."""
    variables = [d for d in o.dies.values() if d[7] is not None]
    # A TLS symbol lacks the 'O' type and its DIE an address: match by name.
    for line in output(["objdump", "-t", "-C", o.path],
                       (" O ", " .tdata", " .tbss")).splitlines():
        m = re.match(r"([0-9a-f]+) .{6}[O ] (\.t?(?:data|bss)(?:\.\S*)?)"
                     r"\s+[0-9a-f]+\s+(?:\.\w+ )?(.+)$", line)
        if not m or m[3].startswith(("guard variable ", "DW.ref.")):
            continue
        at = "tls" if m[2].startswith(".t") else int(m[1], 16)
        for die in (d for d in variables if d[7] == at):
            sym, name = m[3], o.name(die)
            if name and (sym == name or sym.endswith("::" + name)):
                rel, line = o.decl(die)
                if (rel.startswith(SIM_DIR) and sym not in GLOBAL_EXEMPTIONS
                        and not (m[2].startswith(".data.rel.ro")
                                 and declared_const(o, die))):
                    out.add((rel, line, "R6 no-mutable-global-state",
                             f"mutable global '{sym}' in {m[2]}; move it "
                             "behind a System-owned context object"))
                break


def check_calls(o, out):
    """R5 over @p o's relocations and the lines they were inlined from."""
    section, chain, rows = "", [], None  # chain: innermost line first
    for line in output(["objdump", "-dr", "-l", "--inlines", "-C",
                        "--no-show-raw-insn", o.path],
                       ("/", ": R_", "Disassembly of")).splitlines():
        if line.startswith("Disassembly of"):
            section = line.split()[-1].rstrip(":")
            continue
        if line[0] in "/i":
            chain = chain + [line] if line[0] == "i" else [line]
            continue
        name = CALLEES.get(re.split(r"[(+-]", line.rsplit("\t", 1)[-1])[0])
        if not name:
            continue
        frames = [(o.rel(m[1]), int(m[2])) if m else ("", 0) for m in (
            re.match(r"(?:inlined by )?(/.+?):(\d+)", f) for f in chain)]
        # objdump 2.40 puts the leading lines of a DWARF 5 line sequence
        # in the object's own source (file 0) though they lie in file 1:
        # where that can change a finding, the innermost line comes from
        # the decoded line table.
        if (frames and frames[0][0] == o.files.get(0) and
                any(o.files.get(f, "").startswith(SCAN_DIRS) for f in (0, 1))):
            rows = o.line_rows() if rows is None else rows
            frames[0] = o.line_at(rows, section,
                                  int(line.split(":")[0], 16)) or frames[0]
        for rel, num in frames[:1] if name == "new" else frames:
            if rel.startswith(SCAN_DIRS):
                if (name, rel) not in BANNED_EXEMPTIONS:
                    out.add((rel, num, "R5 hygiene", "naked 'new' (use "
                             "make_unique or a container)" if name == "new"
                             else f"banned nondeterminism source '{name}'"))
                break


def check(path, root):
    """The findings in one object, and the error that stopped it."""
    try:
        o, out = Obj(path, root), set()
        for rule in (check_types, check_globals, check_calls):
            rule(o, out)
        return out, None
    except Exception as e:  # an unreadable object is an error, not a pass
        return set(), f"{path}: {e}" if path not in str(e) else str(e)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", required=True, help="the repository root")
    ap.add_argument("objects", nargs="+", metavar="FILE")
    args = ap.parse_args()
    root = os.path.realpath(args.root)
    if not os.path.isdir(root):
        ap.error(f"--root {args.root} is not a directory")
    with ProcessPoolExecutor(min(8, os.cpu_count() or 1)) as pool:
        results = list(pool.map(check, args.objects, itertools.repeat(root)))
    errors = sorted(err for _, err in results if err)
    findings = sorted(set().union(*(out for out, _ in results)))
    for err in errors:
        print(f"contract_check: {err}", file=sys.stderr)
    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    return 2 if errors else 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
