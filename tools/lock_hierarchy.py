#!/usr/bin/env python3
"""The repo-wide lock hierarchy registry (DESIGN.md section 14).

Single source of truth for the lock levels declared with
SARBP_LOCK_LEVEL("...") in src/ and for the known acquires-after edges
between them. Three consumers:

  - tools/sarbp_lint.py (`lock-level` rule): every sarbp::Mutex member in
    src/ must declare a level that exists in LEVELS, and every
    SARBP_ACQUIRED_BEFORE/AFTER edge in the code must agree with the
    topological order below.
  - humans adding a mutex: pick the slot in LEVELS that matches where the
    new lock nests, add it here first, then declare it in the code.
  - the runtime lock-order detector (src/common/deadlock.cpp,
    SARBP_DEADLOCK_CHECK builds) discovers edges empirically; running any
    test binary with SARBP_LOCKDEP_DUMP=1 prints the observed set, which
    must stay a subset of what this order permits.

Running this file directly self-checks the registry (unknown levels in
EDGES, backward edges, duplicate levels) and prints the table.

The order is outermost first: a thread holding a lock at some level may
only blocking-acquire locks at STRICTLY LATER levels. Same-level nesting
must use try_lock (the runtime detector records no edge into a
try-acquisition). Levels never observed nesting still get a defensive
slot so the order is total.
"""

from __future__ import annotations

import sys

# Outermost -> innermost. Comments give the owning declaration.
LEVELS: list[str] = [
    "streaming.session",    # streaming/streaming.cpp StreamSession::Impl
    "service.fair",         # service/fair_queue.h FairScheduler
    "service.job",          # service/job.h JobHandle lifecycle
    "service.reuse_cache",  # service/reuse_cache.h ReuseCache LRU (plans,
                            # sub-aperture partials)
    "exec.live",            # exec/executor.h live-group set
    "exec.group",           # exec/task_group.h TaskGroup completion
    "exec.idle",            # exec/executor.h idle wait
    "exec.backend",         # exec/tile_backend.h BackendSet rates
    "service.shard_abort",  # service/shard_router.h first rank-failure
                            # cause (a leaf: nothing nests inside)
    "common.queue",         # common/queue.h BoundedQueue
    "signal.chebyshev",     # signal/chebyshev.cpp plan table
    "obs.registry",         # obs/metrics.h Registry (metric lookups
                            # happen under module locks everywhere)
    "service.plan_record",  # service/plan_cache.cpp PlanCache miss record
                            # (a leaf: lookup_plan reads, records and marks
                            # a key hash under it, and nothing nests
                            # inside; a build mark may clear under any
                            # lock)
]

# Known acquires-after edges (from is held while to is blocking-acquired),
# with the code path that creates each. Every edge must be FORWARD in
# LEVELS. The runtime detector's observed set (SARBP_LOCKDEP_DUMP=1 over
# the test suite) is checked against this list by tests/test_deadlock.cpp
# for the seeded cases and by review for the rest.
EDGES: list[tuple[str, str, str]] = [
    ("streaming.session", "service.fair",
     "StreamSession pump_locked() submits to the service under the session lock"),
    ("streaming.session", "service.job",
     "documented session -> handle order (StreamSession close/cancel paths)"),
    ("streaming.session", "obs.registry",
     "transitive: FairScheduler tenant counters resolve while the session lock is held"),
    ("streaming.session", "exec.idle",
     "StreamSession pump_locked() submits under the session lock; submit() wakes the executor's pool"),
    ("service.fair", "obs.registry",
     "FairScheduler::submit tenant counters are by-name lookups under the scheduler lock"),
    ("service.job", "obs.registry",
     "JobHandle::finish_locked stamps job metrics by name under the handle lock"),
]


def level_index(name: str) -> int:
    """Rank of a level name, or -1 if it is not in the registry."""
    try:
        return LEVELS.index(name)
    except ValueError:
        return -1


def check() -> list[str]:
    """Returns the registry's self-consistency violations (empty = OK)."""
    problems: list[str] = []
    seen: set[str] = set()
    for name in LEVELS:
        if name in seen:
            problems.append(f"duplicate level: {name}")
        seen.add(name)
    for src, dst, _why in EDGES:
        src_rank, dst_rank = level_index(src), level_index(dst)
        if src_rank < 0:
            problems.append(f"edge references unknown level: {src}")
        if dst_rank < 0:
            problems.append(f"edge references unknown level: {dst}")
        if src_rank >= 0 and dst_rank >= 0 and src_rank >= dst_rank:
            problems.append(
                f"backward edge {src} -> {dst}: contradicts the level order "
                f"({src_rank} >= {dst_rank})")
    return problems


def main() -> int:
    problems = check()
    for problem in problems:
        print(f"lock_hierarchy: {problem}", file=sys.stderr)
    if problems:
        return 1
    width = max(len(name) for name in LEVELS)
    print(f"{len(LEVELS)} levels (outermost first), {len(EDGES)} known edges")
    for rank, name in enumerate(LEVELS):
        outgoing = [dst for src, dst, _ in EDGES if src == name]
        arrow = f"  -> {', '.join(outgoing)}" if outgoing else ""
        print(f"  {rank:2d}  {name:<{width}}{arrow}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
