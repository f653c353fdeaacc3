#!/usr/bin/env python3
"""Repo lint for the concurrency and structure rules compilers cannot check.

Rules (names are what `// lint: allow(<rule>)` suppressions refer to):

  order-comment   Every explicit std::memory_order_* argument must carry a
                  `// order:` justification on the same line or within the
                  three lines above it. The justification is the reviewable
                  artifact: it states WHY the chosen ordering is sufficient.
                  Applies to src/.

  raw-mutex       std::mutex / std::condition_variable and their lock
                  helpers may be spelled only in
                  src/common/thread_annotations.h. Everything else uses the
                  annotated sarbp::Mutex / MutexLock / CondVar wrappers so
                  Clang's -Wthread-safety analysis sees every acquisition.
                  Applies to src/.

  sleep-poll      No std::this_thread::sleep_for in src/: waiting for
                  another thread's state change must use a condition
                  variable (or a timed queue op), not a poll loop. Pure
                  pacing sleeps need an explicit suppression explaining why
                  nothing could notify them.

  isa-ifdef       No raw `#ifdef __AVX2__` / `__AVX512*` conditionals in
                  src/ outside the per-ISA kernel translation units
                  (src/backprojection/kernel_asr_avx2.cpp, _avx512.cpp).
                  ISA selection is a *runtime* decision routed through
                  bp::asr_resolve_isa / common/cpu.h; compile-time macro
                  branches reintroduce the one-binary-one-width builds the
                  dispatcher exists to kill. Capability *reporting* (cpu.cpp
                  telling you what the build's baseline was) carries
                  explicit suppressions.

  isa-intrinsics  Vector intrinsics stay in the per-ISA kernel TUs. In src/,
                  an intrinsics header (`<immintrin.h>` and the other
                  `<*intrin.h>`), `_mm*_` / `_MM_` calls and the
                  `__m128`/`__m256`/`__m512` and `__mmask*` types may
                  appear only in the isa-ifdef rule's two TUs. The shared
                  row kernel and table build
                  (src/backprojection/kernel_asr_rows.h) and the dispatch
                  seam (kernel_simd_ops.h) are included at other -march
                  levels, so they must stay ISA-neutral: each TU supplies
                  its intrinsics through a traits type.

  queue-result    In src/service, src/cluster, and src/streaming,
                  BoundedQueue push/pop family results and Communicator
                  recv-family results must not be discarded — neither as a
                  bare expression statement nor via a (void) cast.
                  Admission control, the close/drain protocol, and the
                  shard gather protocol live entirely in those return
                  values: a dropped recv is a reply (or abort notification)
                  silently thrown away. Streaming rides the same serving
                  queues (stream updates are custom service jobs), so a
                  dropped result there is a silently lost update.

  lock-level      Every `sarbp::Mutex` declaration in src/ must declare its
                  rank in the repo-wide lock hierarchy with
                  `SARBP_LOCK_LEVEL("name")`, the name must exist in
                  tools/lock_hierarchy.py LEVELS, and any
                  SARBP_ACQUIRED_BEFORE/AFTER edge between mutexes declared
                  in the same file must agree with the registry's
                  topological order. A deliberately unleveled mutex (e.g. a
                  test-only fixture lock) carries
                  `// lint: allow(lock-level)` with a rationale.

  asr-core        The ASR formation core stays single. In src/, calls to
                  build_block_tables_fast(, table_seeds(,
                  expand_table_seeds( and block_range_quadratic( and the
                  AsrIsaOps entries (`->rows_aos(`, the row kernels, and
                  `->build_tables(`, the lane-per-table build) may appear
                  only in the core TU (src/backprojection/asr_sweep.cpp)
                  and the per-ISA kernel TUs, which instantiate the one row
                  kernel and table build of
                  src/backprojection/kernel_asr_rows.h. src/asr/ (which
                  defines the table build) and src/beamform/beamformer.cpp
                  (which forms a different geometry) are allowed. Every other
                  ASR sweep goes through bp::sweep_asr_block and every
                  other table build through bp::build_asr_tables, so the
                  kernels, plan replay, backends and streaming cannot
                  drift apart again, nor build their tables on different
                  lanes.

  omp-formation   One parallel runtime: exec::TileExecutor. In src/,
                  `#pragma omp`, `<omp.h>` and omp_* calls never appear,
                  and the build links no OpenMP runtime. A loop that wants
                  threads runs on a pool (exec::parallel_for); the rest
                  run inline. An OpenMP team next to the executor would
                  split the runtime again, oversubscribe its cores, and
                  sum its critical-section reductions in thread-completion
                  order.

  task-graph      One function cuts formations into tasks:
                  exec::make_formation_group. In src/, a TaskGroup is
                  constructed (make_shared/make_unique/new) only in
                  src/exec/formation_tasks.cpp. The plan replay, the
                  streaming updates and the Backprojector hand it their
                  ASR blocks as items, with their sweep bodies, so the
                  fan-out, the §5.3 backend shares and the per-item
                  checkpoint cannot drift apart again.

  job-resolve     One file decides how a request ends:
                  src/service/job.{h,cpp}. In src/, JobHandle's state
                  transitions — finish_locked( and the QUEUED -> RUNNING
                  step (a start_running( call, or a .store( of a JobState)
                  — appear only there. The local formation path, custom
                  jobs, the shard router's dispatch, each rank's part and
                  the gather go through JobHandle::dequeue, RunVerdict and
                  JobHandle::resolve, so the stamps, the first-trip-wins
                  verdict and the terminal transition cannot drift apart
                  again.

  timed-wait      Every `.wait_until(` or `.wait_for(` call in src/ must
                  carry a `// timeout:` note on the same line or within
                  the three lines above its statement, naming the
                  caller-supplied deadline the wait serves. Idle workers
                  park on the executor's idle epoch with no timeout, so a
                  fixed poll budget in an idle path cannot come back
                  unannotated.
                  src/common/thread_annotations.h, which defines the
                  wrappers, is exempt.

  reuse-cache     One LRU in src/: service::ReuseCache. In src/,
                  `std::list<` and `.splice(` may appear only in
                  src/service/reuse_cache.h. The plan cache and the
                  sub-aperture partial cache are its clients, so their
                  eviction, byte count, metrics and hit rule cannot drift
                  apart again.

Suppression syntax (same line, or alone on the line directly above):

    // lint: allow(<rule>) -- <rationale>

The rationale is mandatory; a suppression without `--` text is itself a
finding. Run with --selftest to exercise the rules against embedded
fixtures.

Exit status: 0 clean, 1 findings, 2 usage/self-test failure.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from dataclasses import dataclass

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import lock_hierarchy  # noqa: E402  (the repo lock-level registry)

ANNOTATION_HEADER = pathlib.Path("src/common/thread_annotations.h")

MEMORY_ORDER_RE = re.compile(r"\bstd::memory_order_[a-z_]+\b")
ORDER_COMMENT_RE = re.compile(r"//\s*order:")
ORDER_LOOKBACK = 3   # lines above the statement that may hold the comment
ORDER_WALK_CAP = 12  # max continuation/comment lines walked upward

# A timed condition-variable (or wrapper) wait, and the note that must
# name the deadline it serves.
TIMED_WAIT_RE = re.compile(r"\.\s*wait_(?:until|for)\s*\(")
TIMEOUT_COMMENT_RE = re.compile(r"//\s*timeout:")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)

SLEEP_RE = re.compile(r"\bsleep_for\s*\(")

# A queue op whose value is dropped: either a bare expression statement
# (`q.push(x);` / `tokens_->try_push(...)`) or an explicit (void) cast.
QUEUE_DISCARD_RE = re.compile(
    r"(?:^\s*|\(\s*void\s*\)\s*)[A-Za-z_][\w]*(?:\.|->)"
    r"(?:push|try_push|try_push_for|pop|try_pop|try_pop_for)\s*\("
)

# A gather-mailbox receive whose payload is dropped. recv/recv_vec/
# recv_value may carry template arguments (`recv_value<int>(...)`).
MAILBOX_DISCARD_RE = re.compile(
    r"(?:^\s*|\(\s*void\s*\)\s*)[A-Za-z_][\w]*(?:\.|->)"
    r"(?:recv_value|recv_vec|recv)\s*(?:<[^;(]*>)?\s*\("
)

# A compile-time vector-ISA conditional: `__AVX2__` / `__AVX512F__` etc.
# in any preprocessor or defined() context. The per-ISA kernel TUs are the
# only places allowed to assume a width at compile time.
ISA_IFDEF_RE = re.compile(r"\b__AVX(?:2|512[A-Z]*)__\b")

# The per-ISA kernel TUs: each is compiled with its own explicit -march,
# so compile-time ISA macros are their raison d'être.
ISA_TU_ALLOWLIST = (
    "src/backprojection/kernel_asr_avx2.cpp",
    "src/backprojection/kernel_asr_avx512.cpp",
)

# A vector intrinsic: an intrinsics header, an _mm*_ / _MM_ call, or an
# intrinsic vector or mask type.
ISA_INTRINSIC_RE = re.compile(
    r"#\s*include\s*<\w*intrin\.h>|"
    r"\b_mm(?:256|512)?_\w+\s*\(|\b_MM_\w+\s*\(|"
    r"\b__m(?:128|256|512)[a-z]*\b|\b__mmask\d+\b")

# A call into the ASR core's internals: the table build (whole, or its
# seeds and their expansion), the block quadratic, or a per-ISA row kernel
# or table build through its ops table.
ASR_CORE_RE = re.compile(
    r"\b(?:build_block_tables_fast|table_seeds|expand_table_seeds|"
    r"block_range_quadratic)\s*\(|"
    r"(?:\.|->)\s*(?:rows_aos|build_tables)\s*\(")

# The core TU, the per-ISA kernel TUs, the beamformer's own geometry, and
# src/asr/ (ASR_CORE_DIR), where the table build is defined.
ASR_CORE_ALLOWLIST = ISA_TU_ALLOWLIST + (
    "src/backprojection/asr_sweep.cpp",
    "src/beamform/beamformer.cpp",
)
ASR_CORE_DIR = "src/asr/"

# An OpenMP construct: a pragma, the runtime header, or a runtime call.
OMP_RE = re.compile(r"#\s*pragma\s+omp\b|<omp\.h>|\bomp_[a-z_]+\s*\(")

# A TaskGroup construction: make_shared/make_unique or a raw new.
TASK_GROUP_RE = re.compile(
    r"\b(?:make_shared|make_unique)\s*<\s*(?:exec::)?TaskGroup\s*>|"
    r"\bnew\s+(?:exec::)?TaskGroup\b")

# The one home of TaskGroup construction (exec::make_formation_group).
TASK_GRAPH_HOME = "src/exec/formation_tasks.cpp"

# A JobHandle state transition: the terminal finish_locked, or the
# QUEUED -> RUNNING step (start_running, or a JobState stored directly).
JOB_TRANSITION_RE = re.compile(
    r"\b(?:finish_locked|start_running)\s*\(|"
    r"\.store\s*\(\s*(?:service::)?JobState::")

# The one home of the job lifecycle (dequeue, RunVerdict, resolve).
JOB_RESOLVE_HOMES = ("src/service/job.h", "src/service/job.cpp")

# An LRU's building blocks: a linked list, or moving its nodes.
REUSE_CACHE_RE = re.compile(r"\bstd::list\s*<|(?:\.|->)\s*splice\s*\(")

# The one home of an LRU in src/ (service::ReuseCache).
REUSE_CACHE_HOME = "src/service/reuse_cache.h"

ALLOW_RE = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)\s*(--\s*\S.*)?")

# A value-type sarbp::Mutex declaration: `Mutex name`, optionally mutable/
# static, optionally followed by SARBP_ACQUIRED_* attributes and a brace
# initializer spanning lines. References (`Mutex&`), pointers (`Mutex*`),
# and MutexLock never match.
MUTEX_DECL_RE = re.compile(
    r"\b(?:sarbp::)?Mutex\s+([A-Za-z_]\w*)\s*(?=[;{]|SARBP_|$)")
LOCK_LEVEL_IN_DECL_RE = re.compile(r'SARBP_LOCK_LEVEL\(\s*"([^"]+)"\s*\)')
ACQ_EDGE_RE = re.compile(r"SARBP_ACQUIRED_(BEFORE|AFTER)\(([^)]*)\)")
MUTEX_DECL_JOIN_CAP = 8  # max lines a single declaration may span

RULES = ("order-comment", "raw-mutex", "sleep-poll", "isa-ifdef",
         "isa-intrinsics", "queue-result", "lock-level", "asr-core", "omp-formation",
         "task-graph", "job-resolve", "timed-wait", "reuse-cache")


@dataclass
class Finding:
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_strings(line: str) -> str:
    """Blanks out string/char literals so their contents never match."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def code_part(line: str) -> str:
    """The line with literals blanked and any // comment removed."""
    stripped = strip_strings(line)
    cut = stripped.find("//")
    return stripped if cut < 0 else stripped[:cut]


def comment_near(lines: list[str], idx: int, note: re.Pattern) -> bool:
    """True when a `note` comment (`// order:`, `// timeout:`) covers the
    statement holding line idx.

    Statements span lines and are frequently preceded by (or interleaved
    with) multi-line comments, so the search walks upward from `idx`
    through continuation lines (code not ended by `;`, `{`, or `}`) and
    pure comment lines to the statement's first line, then looks a further
    ORDER_LOOKBACK lines above it. The walk is capped to keep a distant,
    unrelated comment from justifying anything.
    """
    start = idx
    for _ in range(ORDER_WALK_CAP):
        if start == 0:
            break
        prev = lines[start - 1]
        prev_code = code_part(prev).strip()
        is_comment_only = not prev_code and "//" in prev
        is_continuation = bool(prev_code) and prev_code[-1] not in ";{}"
        if is_comment_only or is_continuation:
            start -= 1
        else:
            break
    return any(
        note.search(lines[j])
        for j in range(max(0, start - ORDER_LOOKBACK), idx + 1)
    )


def statement_start(lines: list[str], idx: int) -> bool:
    """True when line idx begins a statement (not a continuation).

    A bare `comm.recv_vec<T>(...)` on a continuation line is the tail of an
    assignment like `const auto payload =` — the value IS consumed, so the
    discard rules must not fire on it.
    """
    if idx == 0:
        return True
    prev = code_part(lines[idx - 1]).strip()
    return not prev or prev[-1] in ";{}"


def suppressions_for(lines: list[str], idx: int) -> tuple[set[str], list[Finding] | None]:
    """Rules suppressed at line index `idx` (same line or the line above)."""
    allowed: set[str] = set()
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = ALLOW_RE.search(lines[probe])
        if not m:
            continue
        if not m.group(2):
            # A suppression with no rationale is reported at its own line.
            return allowed, [
                Finding(
                    pathlib.Path("?"), probe + 1, "bad-suppression",
                    "lint suppression is missing its `-- rationale` text",
                )
            ]
        allowed.add(m.group(1))
    return allowed, None


def join_declaration(lines: list[str], idx: int) -> str:
    """The code text of the declaration statement starting at line idx.

    Mutex declarations may spread the SARBP_ACQUIRED_* attributes and the
    SARBP_LOCK_LEVEL initializer over several lines; the join runs to the
    terminating `;` (capped, so a runaway match cannot swallow the file).
    """
    parts: list[str] = []
    for j in range(idx, min(idx + MUTEX_DECL_JOIN_CAP, len(lines))):
        # Cut the // comment (located on string-blanked text so a // inside
        # a literal cannot truncate) but KEEP string contents: the level
        # name lives inside the SARBP_LOCK_LEVEL("...") literal.
        cut = strip_strings(lines[j]).find("//")
        code = lines[j] if cut < 0 else lines[j][:cut]
        parts.append(code)
        if ";" in strip_strings(code):
            break
    return " ".join(parts)


def scan_lock_levels(rel: pathlib.Path, lines: list[str]) -> list[Finding]:
    """The `lock-level` rule: leveled declarations, known names, sane edges.

    Edge direction is validated only between mutexes declared in the same
    file (the attribute argument is resolvable there); cross-module edges
    live in lock_hierarchy.EDGES and the runtime detector.
    """
    findings: list[Finding] = []
    declared: dict[str, tuple[str | None, int]] = {}  # member -> (level, line)
    edges: list[tuple[str, str, str, int]] = []  # (member, kind, target, line)

    for i, raw in enumerate(lines):
        code = code_part(raw)
        m = MUTEX_DECL_RE.search(code)
        if not m:
            continue
        allowed, _bad = suppressions_for(lines, i)
        stmt = join_declaration(lines, i)
        level_m = LOCK_LEVEL_IN_DECL_RE.search(stmt)
        level = level_m.group(1) if level_m else None
        declared[m.group(1)] = (level, i + 1)
        for edge_m in ACQ_EDGE_RE.finditer(stmt):
            for target in edge_m.group(2).split(","):
                target = target.strip()
                if target:
                    edges.append((m.group(1), edge_m.group(1), target, i + 1))
        if "lock-level" in allowed:
            continue
        if level is None:
            findings.append(Finding(
                rel, i + 1, "lock-level",
                f"Mutex `{m.group(1)}` declares no SARBP_LOCK_LEVEL; pick "
                "its slot in tools/lock_hierarchy.py (or suppress with a "
                "rationale for a deliberately unleveled mutex)"))
        elif lock_hierarchy.level_index(level) < 0:
            findings.append(Finding(
                rel, i + 1, "lock-level",
                f'lock level "{level}" is not in tools/lock_hierarchy.py '
                "LEVELS; register it there first"))

    for member, kind, target, line in edges:
        self_level = declared.get(member, (None, 0))[0]
        target_level = declared.get(target, (None, 0))[0]
        if self_level is None or target_level is None:
            continue  # unresolvable here; the registry covers it
        self_rank = lock_hierarchy.level_index(self_level)
        target_rank = lock_hierarchy.level_index(target_level)
        if self_rank < 0 or target_rank < 0:
            continue  # unknown level already reported above
        ok = self_rank < target_rank if kind == "BEFORE" \
            else self_rank > target_rank
        if not ok:
            findings.append(Finding(
                rel, line, "lock-level",
                f"SARBP_ACQUIRED_{kind}({target}) contradicts the "
                f'registry order: "{self_level}" (rank {self_rank}) vs '
                f'"{target_level}" (rank {target_rank}) in '
                "tools/lock_hierarchy.py"))
    return findings


def scan_file(path: pathlib.Path, text: str) -> list[Finding]:
    rel = path
    in_queue_scope = ("src/service" in path.as_posix() or
                      "src/cluster" in path.as_posix() or
                      "src/streaming" in path.as_posix())
    in_src = path.as_posix().startswith("src/")
    is_annotation_header = path.as_posix() == ANNOTATION_HEADER.as_posix()

    lines = text.splitlines()
    findings: list[Finding] = []
    if in_src and not is_annotation_header:
        findings.extend(scan_lock_levels(rel, lines))

    for i, raw in enumerate(lines):
        code = code_part(raw)
        allowed, bad = suppressions_for(lines, i)
        if bad:
            for f in bad:
                f.path = rel
                findings.append(f)

        if in_src and MEMORY_ORDER_RE.search(code):
            if (not comment_near(lines, i, ORDER_COMMENT_RE)
                    and "order-comment" not in allowed):
                findings.append(Finding(
                    rel, i + 1, "order-comment",
                    "explicit memory_order without a `// order:` "
                    "justification nearby"))

        if in_src and not is_annotation_header and RAW_MUTEX_RE.search(code):
            if "raw-mutex" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "raw-mutex",
                    "raw std synchronization primitive; use the annotated "
                    "sarbp::Mutex/MutexLock/CondVar wrappers "
                    "(src/common/thread_annotations.h)"))

        if (in_src and path.as_posix() not in ISA_TU_ALLOWLIST
                and ISA_IFDEF_RE.search(code)):
            if "isa-ifdef" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "isa-ifdef",
                    "compile-time vector-ISA macro outside the per-ISA "
                    "kernel TUs; route ISA selection through "
                    "bp::asr_resolve_isa / common/cpu.h at runtime"))

        if (in_src and path.as_posix() not in ISA_TU_ALLOWLIST
                and ISA_INTRINSIC_RE.search(code)):
            if "isa-intrinsics" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "isa-intrinsics",
                    "vector intrinsic outside the per-ISA kernel TUs; give "
                    "the TU's traits type the operation "
                    "(backprojection/kernel_asr_rows.h)"))

        if (in_src and path.as_posix() not in ASR_CORE_ALLOWLIST
                and not path.as_posix().startswith(ASR_CORE_DIR)
                and ASR_CORE_RE.search(code)):
            if "asr-core" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "asr-core",
                    "ASR table build or row kernel outside the core TU; "
                    "sweep through bp::sweep_asr_block and build tables "
                    "with bp::build_asr_tables (backprojection/asr_sweep.h)"))

        if in_src and OMP_RE.search(code):
            if "omp-formation" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "omp-formation",
                    "OpenMP in src/; run the loop on exec::TileExecutor "
                    "(exec::parallel_for, exec/formation_tasks.h) or inline"))

        if (in_src and path.as_posix() != TASK_GRAPH_HOME
                and TASK_GROUP_RE.search(code)):
            if "task-graph" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "task-graph",
                    "TaskGroup constructed outside "
                    "exec::make_formation_group; describe the items in an "
                    "exec::FormationSpec (exec/formation_tasks.h)"))

        if (in_src and path.as_posix() not in JOB_RESOLVE_HOMES
                and JOB_TRANSITION_RE.search(code)):
            if "job-resolve" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "job-resolve",
                    "JobHandle state transition outside service/job.{h,cpp}; "
                    "go through JobHandle::dequeue, RunVerdict and "
                    "JobHandle::resolve"))

        if (in_src and not is_annotation_header
                and TIMED_WAIT_RE.search(code)
                and not comment_near(lines, i, TIMEOUT_COMMENT_RE)):
            if "timed-wait" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "timed-wait",
                    "timed wait without a `// timeout:` note naming the "
                    "caller's deadline it serves; idle waits park untimed"))

        if (in_src and path.as_posix() != REUSE_CACHE_HOME
                and REUSE_CACHE_RE.search(code)):
            if "reuse-cache" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "reuse-cache",
                    "LRU building block outside service/reuse_cache.h; "
                    "keep reused values in a service::ReuseCache"))

        if in_src and SLEEP_RE.search(code):
            if "sleep-poll" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "sleep-poll",
                    "sleep_for in src/: wait on a condition variable "
                    "instead of polling (suppress only for pure pacing)"))

        if in_queue_scope and QUEUE_DISCARD_RE.search(code):
            if "queue-result" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "queue-result",
                    "BoundedQueue result discarded; the admission/close "
                    "protocol lives in that return value"))

        if (in_queue_scope and MAILBOX_DISCARD_RE.search(code)
                and statement_start(lines, i)):
            if "queue-result" not in allowed:
                findings.append(Finding(
                    rel, i + 1, "queue-result",
                    "mailbox recv result discarded; a dropped reply breaks "
                    "the shard gather protocol (consume or bind it)"))

    return findings


def iter_sources(root: pathlib.Path) -> list[pathlib.Path]:
    out: list[pathlib.Path] = []
    for sub in ("src",):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".h", ".hpp", ".cpp", ".cc", ".cxx"):
                out.append(path.relative_to(root))
    return out


def run(root: pathlib.Path) -> int:
    findings: list[Finding] = []
    for rel in iter_sources(root):
        text = (root / rel).read_text(encoding="utf-8", errors="replace")
        findings.extend(scan_file(rel, text))
    for f in findings:
        print(f.render())
    if findings:
        print(f"sarbp_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"sarbp_lint: clean ({len(iter_sources(root))} files)")
    return 0


# --------------------------------------------------------------------------
# Self-test fixtures: (virtual path, source, expected rule names).
SELFTEST_CASES = [
    ("src/a.cpp",
     "x.load(std::memory_order_relaxed);\n",
     ["order-comment"]),
    ("src/a.cpp",
     "// order: relaxed — pure counter\nx.load(std::memory_order_relaxed);\n",
     []),
    ("src/a.cpp",
     "// order: above\n//\n//\nx.load(std::memory_order_acquire);\n",
     []),  # within 3-line lookback
    ("src/a.cpp",
     "y = 1;\n// order: spans the statement\nwhile (a &&\n"
     "       x.compare_exchange_weak(a, b, std::memory_order_relaxed)) {\n}\n",
     []),  # continuation lines walk back to the statement head
    ("src/a.cpp",
     "foo();\nbar();\nbaz();\nqux();\nx.load(std::memory_order_acquire);\n",
     ["order-comment"]),  # unrelated code above justifies nothing
    ("src/a.cpp",
     'printf("std::memory_order_relaxed");\n',
     []),  # literals never match
    ("src/a.cpp",
     "x.load(std::memory_order_relaxed);  "
     "// lint: allow(order-comment) -- test\n",
     []),
    ("src/a.cpp",
     "x.load(std::memory_order_relaxed);  // lint: allow(order-comment)\n",
     ["bad-suppression", "order-comment"]),
    ("src/b.cpp", "std::mutex m;\n", ["raw-mutex"]),
    ("src/b.cpp", "std::scoped_lock lock(m);\n", ["raw-mutex"]),
    ("src/common/thread_annotations.h", "std::mutex m_;\n", []),
    ("tests/b.cpp", "std::mutex m;\n", []),  # tests are out of scope
    ("src/c.cpp", "std::this_thread::sleep_for(1ms);\n", ["sleep-poll"]),
    ("src/c.cpp",
     "// lint: allow(sleep-poll) -- pacing\n"
     "std::this_thread::sleep_for(1ms);\n",
     []),
    ("src/d.cpp", "#ifdef __AVX2__\n#endif\n", ["isa-ifdef"]),
    ("src/d.cpp", "#if defined(__AVX512F__) && defined(__AVX512VL__)\n",
     ["isa-ifdef"]),
    ("src/backprojection/kernel_asr_avx2.cpp", "#ifdef __AVX2__\n", []),
    ("src/backprojection/kernel_asr_avx512.cpp", "#ifdef __AVX512F__\n", []),
    ("src/d.cpp",
     "#ifdef __AVX2__  // lint: allow(isa-ifdef) -- baseline reporting\n",
     []),
    ("tests/d.cpp", "#ifdef __AVX2__\n", []),  # tests are out of scope
    # isa-intrinsics: intrinsics and vector types only in the per-ISA TUs.
    ("src/backprojection/kernel_asr_rows.h",
     "#include <immintrin.h>\n"
     "const __m512 zero = _mm512_setzero_ps();\n"
     "__mmask16 live = 0xFFFF;\n",
     ["isa-intrinsics", "isa-intrinsics", "isa-intrinsics"]),
    ("src/backprojection/kernel_simd_ops.h",
     "_MM_TRANSPOSE4_PS(a, b, c, d);\n#include <x86intrin.h>\n",
     ["isa-intrinsics", "isa-intrinsics"]),
    ("src/backprojection/kernel_asr_avx2.cpp",
     "#include <immintrin.h>\n"
     "const __m256 zero = _mm256_setzero_ps();\n"
     "_mm_maskstore_ps(p, live, v);\n",
     []),
    ("src/backprojection/kernel_asr_avx512.cpp",
     "const __mmask16 fits = _mm512_cmple_epu32_mask(a, b);\n", []),
    ("src/backprojection/kernel_asr_rows.h",
     "// lint: allow(isa-intrinsics) -- fixture\n"
     "const __m256 zero = _mm256_setzero_ps();\n",
     []),
    ("src/backprojection/kernel_asr_rows.h",
     "// no intrinsic or vector type (__m512, _mm512_add_ps) here\n"
     "static F add(F a, F b) { return V::add(a, b); }\n",
     []),  # comments never match
    ("tests/k.cpp", "const __m256 x = _mm256_setzero_ps();\n",
     []),  # tests are out of scope
    ("src/service/s.cpp", "queue_.push(std::move(x));\n", ["queue-result"]),
    ("src/service/s.cpp", "(void)queue_.try_pop();\n", ["queue-result"]),
    ("src/service/s.cpp", "if (!queue_.push(x)) return;\n", []),
    ("src/service/s.cpp", "const bool ok = q.try_push_for(x, grace);\n", []),
    ("src/other/s.cpp", "queue_.push(std::move(x));\n", []),
    ("src/cluster/c.cpp", "queue_.push(std::move(x));\n", ["queue-result"]),
    ("src/cluster/c.cpp", "comm.recv(0, 7);\n", ["queue-result"]),
    ("src/cluster/c.cpp", "(void)comm.recv_value<int>(0, 7);\n",
     ["queue-result"]),
    ("src/cluster/c.cpp",
     "const auto payload =\n    comm.recv_vec<T>(src, tag);\n",
     []),  # continuation of an assignment: the value IS consumed
    ("src/service/s.cpp", "fe->recv_vec<float>(s, kTag);\n",
     ["queue-result"]),
    ("src/other/s.cpp", "comm.recv(0, 7);\n", []),  # out of scope
    # src/streaming is in scope for the src-wide rules AND queue-result.
    ("src/streaming/s.cpp", "std::mutex m;\n", ["raw-mutex"]),
    ("src/streaming/s.cpp", "x.store(1, std::memory_order_release);\n",
     ["order-comment"]),
    ("src/streaming/s.cpp", "pending_.push(std::move(chunk));\n",
     ["queue-result"]),
    ("src/streaming/s.cpp", "if (!pending_.push(chunk)) return false;\n",
     []),
    # asr-core: the table build and the row kernels are called only from
    # the core TU (and the per-ISA TUs, src/asr/, the beamformer).
    ("src/service/p.cpp",
     "asr::build_block_tables_fast(q, r0, dr, k, l, m, t);\n",
     ["asr-core"]),
    ("src/streaming/s.cpp",
     "const auto q = bp::block_range_quadratic(c, r, dx, order);\n",
     ["asr-core"]),
    ("src/exec/t.cpp", "ops->rows_aos(t, in, n, re, im, w, l, m, v);\n",
     ["asr-core"]),
    ("src/backprojection/asr_sweep.cpp",
     "ops_->rows_aos(t, in, n, re, im, w, l, m, v);\n"
     "asr::build_block_tables_fast(q, r0, dr, k, l, m, t);\n",
     []),
    ("src/asr/tables.cpp",
     "void build_block_tables_fast(const Quadratic2D& q, double r0,\n",
     []),
    ("src/beamform/beamformer.cpp",
     "asr::build_block_tables_fast(q, 0.0, dr, k, l, m, t);\n",
     []),
    ("src/service/p.cpp",
     "// lint: allow(asr-core) -- fixture\n"
     "asr::build_block_tables_fast(q, r0, dr, k, l, m, t);\n",
     []),
    ("src/service/p.cpp",
     "// build_block_tables_fast(q, ...) is named in a comment only\n",
     []),
    ("tests/p.cpp", "asr::build_block_tables_fast(q, r0, dr, k, l, m, t);\n",
     []),  # tests are out of scope
    # asr-core: the lane-per-table build and the seed expansion.
    ("src/service/p.cpp", "ops->build_tables(seeds, out, count);\n",
     ["asr-core"]),
    ("src/streaming/s.cpp",
     "const auto seeds = asr::table_seeds(q, r0, dr, k, l, m);\n"
     "asr::expand_table_seeds(seeds, t);\n",
     ["asr-core", "asr-core"]),
    ("src/backprojection/asr_sweep.cpp",
     "ops->build_tables(seeds, out, static_cast<int>(count));\n"
     "asr::expand_table_seeds(seeds_of(slot), *slot.out);\n",
     []),
    ("src/backprojection/kernel_asr_avx512.cpp",
     "ops.build_tables(seeds, out, count);\n", []),
    ("src/asr/tables.cpp",
     "expand_table_seeds(table_seeds(q, r0, dr, k, w, h), tables);\n", []),
    ("src/service/p.cpp",
     "const auto seeds = make_table_seeds(q);  // not the core's\n", []),
    # omp-formation: no OpenMP anywhere in src/.
    ("src/backprojection/backprojector.cpp",
     "#include <omp.h>\n#pragma omp parallel num_threads(workers)\n"
     "const int n = omp_get_max_threads();\n",
     ["omp-formation", "omp-formation", "omp-formation"]),
    ("src/exec/e.cpp", "#  pragma omp critical(reduce)\n", ["omp-formation"]),
    ("src/pipeline/ccd.cpp",
     "#include <omp.h>\n#pragma omp parallel for schedule(static)\n",
     ["omp-formation", "omp-formation"]),
    ("src/common/cpu.cpp", "info.openmp_max_threads = omp_get_max_threads();\n",
     ["omp-formation"]),
    ("src/exec/e.cpp",
     "// lint: allow(omp-formation) -- fixture\n#pragma omp parallel for\n",
     []),
    ("src/exec/e.cpp", "// no #pragma omp here, omp_get_num_threads() either\n",
     []),  # comments never match
    ("tests/e.cpp", "#pragma omp parallel for\n", []),  # out of scope
    # task-graph: TaskGroups are built only by exec::make_formation_group.
    ("src/service/p.cpp",
     "return std::make_shared<exec::TaskGroup>(std::move(tasks), cp, done);\n",
     ["task-graph"]),
    ("src/streaming/s.cpp",
     "auto* g = new exec::TaskGroup(std::move(tasks), nullptr, nullptr);\n",
     ["task-graph"]),
    ("src/exec/formation_tasks.cpp",
     "return std::make_shared<TaskGroup>(std::move(tasks), std::move(cp),\n",
     []),
    ("src/service/p.cpp",
     "// lint: allow(task-graph) -- fixture\n"
     "auto g = std::make_shared<exec::TaskGroup>(t, nullptr, nullptr);\n",
     []),
    ("src/service/p.cpp",
     "// std::make_shared<exec::TaskGroup>(...) is named in a comment only\n",
     []),
    ("tests/t.cpp",
     "auto g = std::make_shared<TaskGroup>(std::move(tasks), nullptr, nullptr);\n",
     []),  # tests are out of scope
    # job-resolve: only service/job.{h,cpp} moves a JobHandle between states.
    ("src/service/shard_router.cpp", "job.finish_locked(outcome);\n",
     ["job-resolve"]),
    ("src/service/service.cpp", "if (!job->start_running()) return nullptr;\n",
     ["job-resolve"]),
    ("src/streaming/s.cpp", "state_.store(service::JobState::kRunning);\n",
     ["job-resolve"]),
    ("src/service/job.cpp",
     "finish_locked(JobState::kExpired);\n"
     "state_.store(JobState::kRunning);\n",
     []),
    ("src/service/job.h", "finish_locked(JobState::kCancelled);\n", []),
    ("src/service/shard_router.cpp",
     "// lint: allow(job-resolve) -- fixture\n"
     "job->finish_locked(JobState::kFailed);\n",
     []),
    ("src/service/service.cpp",
     "// finish_locked(...) is named in a comment only\n",
     []),
    ("tests/t.cpp", "job->finish_locked(JobState::kDone);\n",
     []),  # tests are out of scope
    # lock-level: every Mutex declaration in src/ names its hierarchy rank.
    ("src/e.h", "mutable Mutex mutex_;\n", ["lock-level"]),
    ("src/e.h",
     'mutable Mutex mutex_{SARBP_LOCK_LEVEL("service.job")};\n',
     []),
    ("src/e.h",
     'Mutex m_{SARBP_LOCK_LEVEL("no.such.level")};\n',
     ["lock-level"]),  # level must exist in tools/lock_hierarchy.py
    ("src/e.h",
     "Mutex fixture_mutex_;  // lint: allow(lock-level) -- test-only lock\n",
     []),
    ("src/e.h",
     'static Mutex mutex{SARBP_LOCK_LEVEL("signal.chebyshev")};\n',
     []),
    ("src/e.h", "MutexLock lock(mutex_);\n", []),  # a lock, not a mutex
    ("src/e.h", "void wait(Mutex& mutex);\n", []),  # references never match
    ("tests/e.h", "Mutex m_;\n", []),  # tests are out of scope
    # Declarations may spread attributes/initializer over lines; edges are
    # validated against the registry's topological order.
    ("src/e.h",
     "Mutex barrier_mutex_ SARBP_ACQUIRED_BEFORE(reason_mutex_){\n"
     '    SARBP_LOCK_LEVEL("cluster.barrier")};\n'
     "mutable Mutex reason_mutex_ SARBP_ACQUIRED_AFTER(barrier_mutex_){\n"
     '    SARBP_LOCK_LEVEL("cluster.reason")};\n',
     []),
    ("src/e.h",
     'Mutex a_ SARBP_ACQUIRED_BEFORE(b_){SARBP_LOCK_LEVEL("obs.registry")};\n'
     'Mutex b_{SARBP_LOCK_LEVEL("service.job")};\n',
     ["lock-level"]),  # obs.registry is inner to service.job: backward
    ("src/e.h",
     'Mutex a_ SARBP_ACQUIRED_AFTER(b_){SARBP_LOCK_LEVEL("service.fair")};\n'
     'Mutex b_{SARBP_LOCK_LEVEL("obs.registry")};\n',
     ["lock-level"]),  # ACQUIRED_AFTER pointing at an inner level
    # timed-wait: a timed wait names the caller's deadline it serves.
    ("src/service/f.cpp", "claim_cv_.wait_until(lock, deadline);\n",
     ["timed-wait"]),
    ("src/exec/t.h",
     "if (cv_.wait_for(lock, 1ms) == std::cv_status::timeout) {\n",
     ["timed-wait"]),
    ("src/exec/t.h",
     "// timeout: the caller's wait_for budget\n"
     "if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {\n",
     []),
    ("src/exec/t.h",
     "// timeout: too far above\nfoo();\nbar();\nbaz();\n"
     "cv_.wait_until(lock, deadline);\n",
     ["timed-wait"]),
    ("src/service/f.cpp",
     "cv_.wait_for(lock, 1ms);  // lint: allow(timed-wait) -- fixture\n",
     []),
    ("src/common/thread_annotations.h",
     "return cv_.wait_until(lock.native(), deadline);\n",
     []),
    ("src/service/f.cpp", "// claim_cv_.wait_until(lock, d) in a comment\n",
     []),
    ("tests/t.cpp", "cv.wait_for(lock, 1ms);\n", []),  # out of scope
    # reuse-cache: one LRU in src/, service::ReuseCache.
    ("src/streaming/subaperture_cache.h", "std::list<Entry> lru_;\n",
     ["reuse-cache"]),
    ("src/service/plan_cache.cpp",
     "lru_.splice(lru_.begin(), lru_, it->second);\n"
     "evicted->splice(evicted->end(), lru_, last);\n",
     ["reuse-cache", "reuse-cache"]),
    ("src/service/reuse_cache.h",
     "std::list<Entry> lru_ SARBP_GUARDED_BY(mutex_);\n"
     "lru_.splice(lru_.begin(), lru_, it->second);\n",
     []),
    ("src/service/p.cpp",
     "// lint: allow(reuse-cache) -- fixture\nstd::list<int> order;\n",
     []),
    ("src/service/p.cpp", "// a std::list<T> and .splice( in a comment\n",
     []),
    ("src/service/p.cpp", "const auto parts = splice_parts(a, b);\n", []),
    ("tests/t.cpp", "std::list<int> order;\n", []),  # out of scope
]


def selftest() -> int:
    failures = 0
    for idx, (vpath, source, expected) in enumerate(SELFTEST_CASES):
        got = [f.rule for f in scan_file(pathlib.Path(vpath), source)]
        if got != expected:
            failures += 1
            print(f"selftest case {idx}: expected {expected}, got {got}",
                  file=sys.stderr)
    if failures:
        print(f"sarbp_lint selftest: {failures} failure(s)", file=sys.stderr)
        return 2
    print(f"sarbp_lint selftest: {len(SELFTEST_CASES)} cases ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the embedded rule fixtures and exit")
    ns = parser.parse_args()
    if ns.selftest:
        return selftest()
    return run(pathlib.Path(ns.root).resolve())


if __name__ == "__main__":
    sys.exit(main())
