"""Cycle and step parity on trap paths and around call-outs.

The VM charges a decoded segment's steps and cycles at once and keeps
the counters in locals between call-outs.  Every expected value below
was recorded with the earlier interpreter, which charged one instruction
at a time and kept the counters on the VM, so a counter that is not
flushed before a call-out, reloaded after it, or taken back when a
segment traps part-way shows up here as a changed number.
"""

import pytest

from repro.backend.isel import lower_module
from repro.baselines.dbi import DrCov
from repro.errors import VMError, VMTrap
from repro.ir.parser import parse_module
from repro.linker.linker import link
from repro.vm.interpreter import VM, ProbeRuntime

# A counted loop, then a block that stops part-way through: the trapping
# instruction sits between arithmetic that must not be charged.
_LOOP = """
define i64 @spin(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  %acc = phi i64 [ 1, %entry ], [ %acc2, %loop ]
  %acc2 = mul i64 %acc, 3
  %next = add i64 %i, 1
  %c = icmp ult i64 %next, %n
  br i1 %c, label %loop, label %done
done:
  ret i64 %acc2
}
"""

PROGRAMS = {
    "bad-load": _LOOP + """
define i32 @callee(i64 %x) {
entry:
  %a = add i64 %x, 5
  %p = inttoptr i64 %a to ptr
  %v = load i32, ptr %p
  %w = add i32 %v, 1
  %z = mul i32 %w, 7
  ret i32 %z
}

define i32 @f() {
entry:
  %s = call i64 @spin(i64 9)
  %m = and i64 %s, 255
  %r = call i32 @callee(i64 %m)
  %r2 = add i32 %r, 2
  ret i32 %r2
}
""",
    "const-store": _LOOP + """
@ro = const [4 x i8] c"abc\\00"
@rw = global i32 0

define i32 @f() {
entry:
  %s = call i64 @spin(i64 5)
  %t = trunc i64 %s to i32
  store i32 %t, ptr @rw
  %b = trunc i64 %s to i8
  store i8 %b, ptr @ro
  %u = add i32 %t, 9
  store i32 %u, ptr @rw
  ret i32 %u
}
""",
    "div-by-zero": _LOOP + """
define i32 @f(i32 %d) {
entry:
  %s = call i64 @spin(i64 4)
  %t = trunc i64 %s to i32
  %x = add i32 %t, 17
  %q = sdiv i32 %x, %d
  %y = mul i32 %q, 5
  ret i32 %y
}
""",
    "div-by-zero-imm": _LOOP + """
define i32 @f(i32 %d) {
entry:
  %s = call i64 @spin(i64 4)
  %t = trunc i64 %s to i32
  %x = add i32 %t, %d
  %q = urem i32 %x, 0
  %y = mul i32 %q, 5
  ret i32 %y
}
""",
    "unreachable": _LOOP + """
define i32 @f() {
entry:
  %s = call i64 @spin(i64 6)
  %t = trunc i64 %s to i32
  %c = icmp eq i32 %t, 0
  br i1 %c, label %ok, label %bad
ok:
  ret i32 0
bad:
  %x = add i32 %t, 1
  unreachable
}
""",
    "exit": _LOOP + """
@msg = const [7 x i8] c"hello\\0A\\00"
declare i32 @puts(ptr)
declare void @exit(i32)

define i32 @f() {
entry:
  %s = call i64 @spin(i64 7)
  %n = call i32 @puts(ptr @msg)
  %t = trunc i64 %s to i32
  %code = and i32 %t, 63
  call void @exit(i32 %code)
  %after = add i32 %code, 1
  ret i32 %after
}
""",
    "stack-overflow": """
define i32 @deep(i32 %n) {
entry:
  %slot = alloca [8192 x i64]
  %n1 = add i32 %n, 1
  %r = call i32 @deep(i32 %n1)
  %r1 = add i32 %r, 1
  ret i32 %r1
}

define i32 @f() {
entry:
  %r = call i32 @deep(i32 0)
  ret i32 %r
}
""",
}

# (exit_code, trap, cycles, steps), recorded with the earlier interpreter.
EXPECTED = {
    ("bad-load", ()): (-1, "bad-memory", 140, 110),
    ("const-store", ()): (-1, "bad-memory", 83, 66),
    ("div-by-zero", (0,)): (-1, "div-by-zero", 84, 52),
    ("div-by-zero", (3,)): (160, None, 89, 54),
    ("div-by-zero-imm", (1,)): (-1, "div-by-zero", 84, 52),
    ("unreachable", ()): (-1, "unreachable", 94, 77),
    ("exit", ()): (11, None, 149, 87),
    ("stack-overflow", ()): (-1, "stack-overflow", 504, 189),
}


def build_exe(source):
    return link([lower_module(parse_module(source))])


@pytest.mark.parametrize("name,args", sorted(EXPECTED))
def test_trap_path_counters(name, args):
    result = VM(build_exe(PROGRAMS[name])).run("f", args)
    got = (result.exit_code, result.trap, result.cycles, result.steps)
    assert got == EXPECTED[(name, args)]


# vm.steps and vm.cycles after VMError at several step limits: each
# limit falls on a different instruction of the loop body.
STEP_LIMIT_EXPECTED = {
    1000: (1001, 1180),
    1001: (1002, 1183),
    1002: (1003, 1183),
    1003: (1004, 1184),
    1004: (1005, 1185),
}


@pytest.mark.parametrize("limit", sorted(STEP_LIMIT_EXPECTED))
def test_step_limit_counters(limit):
    vm = VM(build_exe(_LOOP), max_steps=limit)
    with pytest.raises(VMError, match=f"exceeded {limit} steps in @spin"):
        vm.run("spin", (10**9,))
    assert (vm.steps, vm.cycles) == STEP_LIMIT_EXPECTED[limit]


_PROBED = """
declare void @__odin_cov_hit(i64)
declare void @__cmplog_hit(i64, i64, i64)

define i64 @leaf(i64 %x) {
entry:
  call void @__odin_cov_hit(i64 10)
  %y = mul i64 %x, 3
  ret i64 %y
}

define i64 @f(i64 %n) {
entry:
  call void @__odin_cov_hit(i64 1)
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %next, %loop ]
  call void @__odin_cov_hit(i64 2)
  %v = call i64 @leaf(i64 %i)
  call void @__cmplog_hit(i64 3, i64 %v, i64 %n)
  %next = add i64 %i, 1
  %c = icmp ult i64 %next, %n
  br i1 %c, label %loop, label %done
done:
  call void @__odin_cov_hit(i64 4)
  ret i64 %next
}
"""


class CycleRecorder(ProbeRuntime):
    """Logs the counters at each event and charges cycles of its own."""

    def __init__(self, charge=0, trap_at=None):
        self.charge = charge
        self.trap_at = trap_at
        self.events = []

    def on_probe(self, kind, probe_id, args, vm):
        self.events.append((kind, probe_id, args, vm.cycles, vm.steps))
        vm.cycles += self.charge
        if len(self.events) == self.trap_at:
            raise VMTrap("recorder trap", "abort")


# Events are (kind, probe id, args, vm.cycles, vm.steps) as the runtime
# saw them; the runtime charges *charge* cycles per event and traps at
# event *trap_at*.  (trap, cycles, steps, events), recorded with the
# earlier interpreter.
_EVENTS = [
    ("cov", 1, (), 2, 2),
    ("cov", 2, (), 7, 7),
    ("cov", 10, (), 16, 10),
    ("cmplog", 3, (0, 4), 29, 13),
    ("cov", 2, (), 39, 22),
    ("cov", 10, (), 48, 25),
    ("cmplog", 3, (3, 4), 61, 28),
    ("cov", 2, (), 71, 37),
    ("cov", 10, (), 80, 40),
    ("cmplog", 3, (6, 4), 93, 43),
    ("cov", 2, (), 103, 52),
    ("cov", 10, (), 112, 55),
    ("cmplog", 3, (9, 4), 125, 58),
    ("cov", 4, (), 132, 63),
]
_CHARGED_EVENTS = [
    ("cov", 1, (), 2, 2),
    ("cov", 2, (), 11, 7),
    ("cov", 10, (), 24, 10),
    ("cmplog", 3, (0, 4), 41, 13),
    ("cov", 2, (), 55, 22),
    ("cov", 10, (), 68, 25),
    ("cmplog", 3, (3, 4), 85, 28),
    ("cov", 2, (), 99, 37),
    ("cov", 10, (), 112, 40),
    ("cmplog", 3, (6, 4), 129, 43),
    ("cov", 2, (), 143, 52),
    ("cov", 10, (), 156, 55),
    ("cmplog", 3, (9, 4), 173, 58),
    ("cov", 4, (), 184, 63),
]
PROBE_EXPECTED = {
    (0, None): (None, 134, 64, _EVENTS),
    (4, None): (None, 190, 64, _CHARGED_EVENTS),
    (4, 9): ("abort", 116, 40, _CHARGED_EVENTS[:9]),
}


@pytest.mark.parametrize("charge,trap_at", sorted(PROBE_EXPECTED, key=str))
def test_probe_runtime_reads_current_counters(charge, trap_at):
    recorder = CycleRecorder(charge, trap_at)
    result = VM(build_exe(_PROBED), probe_runtime=recorder).run("f", (4,))
    got = (result.trap, result.cycles, result.steps, recorder.events)
    assert got == PROBE_EXPECTED[(charge, trap_at)]


# (exit_code, trap, cycles, steps) per seed input, then blocks covered,
# recorded with the earlier interpreter.
DRCOV_EXPECTED = [(1, None, 3992, 338), (2, None, 2563, 341), (20, None, 8464, 1497), 84]


def test_drcov_translation_cycles():
    """DrCov's block hook adds translation cycles mid-run."""
    from repro.programs.registry import get_program
    from repro.toolchain import build_module

    program = get_program("json")
    exe = build_module(program.compile(), 2).executable
    tool = DrCov(exe)
    got = []
    for data in program.seeds(1)[:3]:
        vm = tool.make_vm()
        addr = vm.alloc(len(data) + 1)
        vm.write_bytes(addr, data)
        result = vm.run("run_input", (addr, len(data)), reset=False)
        got.append((result.exit_code, result.trap, result.cycles, result.steps))
    got.append(tool.blocks_covered)
    assert got == DRCOV_EXPECTED
