// The one ASR block sweep (paper Fig. 3(b)): build a block's A, B, C,
// Phi', Omega, Psi tables for a pulse, then sweep the block. Every ASR image in
// sarbp goes through here — the backproject_asr_{scalar,simd} kernels, the
// service's plan replay (execute_plan, make_plan_replay_group, every
// exec::TileBackend) and the streaming sessions — and every table comes
// from build_asr_tables, whose vector lanes compute each table's seeds and
// expand them (kernel_asr_rows.h, asr/seed_lanes.h).
//
// sweep_asr_block sweeps one block over a sequence of pulses into a
// SoaTile. Its inputs:
//  - the block and the image coordinates of the tile's origin;
//  - the pulses: one or more histories walked in order, so a streaming
//    window of chunks is one sequence;
//  - each pulse's loop order: fixed, or per pulse;
//  - a table source: a plan's prebuilt tables, or tables built a few
//    pulses at a time into per-thread scratch;
//  - a kernel: the portable scalar sweep, or a vector ISA plus
//    KernelVariant. Every kernel but kGatherNoFma gives the same bytes.
//
// Run batching, the same for every kernel. A run is a maximal stretch of
// consecutive pulses with the same loop order. Under x_inner the rows
// accumulate straight into the tile. Under y_inner they accumulate into an
// l-contiguous workspace that is zeroed at the start of the run and
// flushed, transposed, once at its end. A run continues across history
// boundaries, so the bits depend only on the pulse sequence, the kernel and
// the table bytes: neither the table source nor the split of the pulses
// into histories changes the image.
#pragma once

#include <optional>
#include <span>

#include "asr/block_plan.h"
#include "asr/tables.h"
#include "backprojection/kernel.h"
#include "backprojection/soa_tile.h"
#include "common/types.h"
#include "geometry/grid.h"
#include "geometry/wavefront.h"
#include "sim/phase_history.h"

namespace sarbp::bp {

/// The inner loop a sweep runs. kScalar (the default) is the portable
/// scalar sweep; a vector ISA runs its rows with `variant`. kAuto resolves
/// to the widest usable ISA; a concrete ISA must be usable here
/// (asr_resolve_isa).
struct AsrKernel {
  SimdIsa isa = SimdIsa::kScalar;
  KernelVariant variant = KernelVariant::kAuto;
};

/// Pulses [begin, end) of one history.
struct PulseRange {
  const sim::PhaseHistory* history = nullptr;
  Index begin = 0;
  Index end = 0;
};

/// A plan's prebuilt tables for one block: tables[p] and orders[p] serve
/// pulse p of the replayed history.
struct PlanTables {
  const asr::BlockTables* tables = nullptr;
  const geometry::LoopOrder* orders = nullptr;
};

/// One table of a build: pulse `pulse` of `*history` under `order`, into
/// the tables `*out` views. Their extents are the block's under `order`:
/// width x height for x_inner, height x width for y_inner.
struct TableSlot {
  const sim::PhaseHistory* history = nullptr;
  Index pulse = 0;
  geometry::LoopOrder order = geometry::LoopOrder::kXInner;
  asr::BlockTables* out = nullptr;
};

/// The one table build (paper Fig. 3(b) line 02, vectorized as §4.4 asks):
/// for every slot, the range quadratic of `block` about its centre for the
/// slot's pulse under its order, its seeds and their expansion into
/// *slot.out. A vector ISA runs all three in its f64 lanes, one table set
/// per lane, in lane groups of consecutive slots: the quadratic, the seeds
/// and their sincos with the template asr::table_seeds is built from
/// (asr/seed_lanes.h), the expansion in asr::expand_table_seeds's pinned
/// forms (kAuto: the widest usable ISA; kScalar: asr::table_seeds and
/// asr::expand_table_seeds one table at a time). Every ISA writes the
/// scalar build's bytes, so the build's ISA never depends on the sweep
/// kernel's. Slots may mix loop orders and histories. Throws
/// PreconditionError, as asr::range_quadratic does, when a slot's radar
/// sits on the block centre.
void build_asr_tables(const geometry::ImageGrid& grid,
                      const asr::BlockSpec& block,
                      std::span<const TableSlot> slots,
                      SimdIsa isa = SimdIsa::kAuto);

/// asr::unit_phase of each phase in `isa`'s f64 lanes, the table build's
/// sincos, into re and im (each phase's size; kScalar: asr::unit_phase
/// itself). Every ISA gives asr::unit_phase's bits; for the byte tests.
void unit_phases(std::span<const double> phase, std::span<double> re,
                 std::span<double> im, SimdIsa isa = SimdIsa::kAuto);

/// Sweeps `block` over `pulses` with a plan's prebuilt tables. (tile_x0,
/// tile_y0): image coordinates of the tile's (0, 0) pixel.
void sweep_asr_block(const asr::BlockSpec& block, Index tile_x0,
                     Index tile_y0, const PlanTables& plan,
                     const PulseRange& pulses, const AsrKernel& kernel,
                     SoaTile& tile);

/// Sweeps `block` over `pulses` (walked in order), building the tables
/// with build_asr_tables into per-thread scratch (one float buffer, grown
/// to the largest block the thread has swept): the next 8 pulses
/// (across history boundaries; one AVX-512 lane group, two AVX2 ones) are
/// built, then swept in order. `order` fixes the loop order; nullopt
/// chooses each pulse's wavefront order about the grid centre — the rule a
/// formation plan records in its pulse_order.
void sweep_asr_block(const asr::BlockSpec& block, Index tile_x0,
                     Index tile_y0, const geometry::ImageGrid& grid,
                     std::span<const PulseRange> pulses,
                     std::optional<geometry::LoopOrder> order,
                     const AsrKernel& kernel, SoaTile& tile);

}  // namespace sarbp::bp
