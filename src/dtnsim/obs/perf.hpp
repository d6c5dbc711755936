// Simulated `perf`: exact per-stage CPU-cycle attribution.
//
// The paper's throughput story is a cycles story, and its evidence is perf
// profiles — data copy dominating the RX path at 100G, MSG_ZEROCOPY moving
// TX cycles from copy_user to page pinning. cpu::CostModel prices every
// kernel-path stage in cycles/byte, and the engines charge those prices per
// core group: the fluid engine per round against its RoundConsts budgets,
// the packet engine per super-packet and per segment. This header is the
// `perf report` view over those charges: a fixed stage taxonomy named after
// the real kernel symbols, a PerfReport carrying per-core and per-flow cycle
// totals, text renderers (perf report-style table + Brendan Gregg collapsed
// stacks), and a JSON round-trip for dtnsim-perf --json and a RunRecord's
// perf_log. obs::Sampler (sampler.hpp) keeps the reports, taken on the
// simulation clock, in its perf log.
//
// Attribution is exact, not sampled: each price the cost model builds is a
// StagePrice, the per-byte charge together with its split into stages, and
// an engine bills both halves at once through PerfReport::charge. Summed
// stage cycles therefore equal the consumed-cycle figure to fp rounding;
// cross_check_stage_sum checks that identity at every sample.
//
// Layering: obs sits below cpu/flow, so these are plain-data structs that
// cpu::CostModel fills and the engines accumulate: with perf on, each engine
// charges into one PerfReport, and its perf view copies it and fills in what
// it reads off the simulation clock.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "dtnsim/util/fields.hpp"

namespace dtnsim::obs {

// The four core groups the budget model meters. Order is the report order.
enum class PerfCore { SndApp = 0, SndIrq = 1, RcvApp = 2, RcvIrq = 3 };
inline constexpr int kPerfCoreCount = 4;

// The stage taxonomy: one entry per cost-model term, named after the kernel
// symbol the term stands in for (docs/OBSERVABILITY.md has the full table).
// Values are stable indices into PerfReport::stage_cycles.
enum class PerfStage {
  // snd_app — sendmsg path on the application cores.
  TxSyscall = 0,     // tcp_sendmsg_locked: per-GSO-skb syscall/skb setup
  TxProto = 1,       // tcp_write_xmit: per-byte protocol bookkeeping
  TxUserCopy = 2,    // copy_user_enhanced_fast_string: user->skb copy
  TxZcPin = 3,       // zerocopy_sg_from_iter: page pinning (MSG_ZEROCOPY)
  TxZcNotify = 4,    // msg_zerocopy_callback: error-queue completions
  TxZcFallback = 5,  // skb_zerocopy_iter_stream: pin failed, copied anyway
  // snd_irq — segmentation + device queue on the IRQ cores.
  TxGsoSegment = 6,  // tcp_gso_segment / skb_segment: per-MTU residue
  TxDmaMap = 7,      // dma_map_page_attrs + doorbell (IOMMU mode dependent)
  TxCompletion = 8,  // mlx5e_poll_tx_cq / skb_release_data: TX completions
  // rcv_irq — NAPI poll on the receiver IRQ cores.
  RxSkbAlloc = 9,    // mlx5e_skb_from_cqe + dma_unmap: per-packet skb setup
  RxGroMerge = 10,   // gro_receive: per-packet coalescing work
  RxAggFlush = 11,   // napi_gro_flush / tcp_v4_rcv: per-aggregate delivery
  RxCsum = 12,       // csum_partial / tcp validation: per-byte checksum
  // rcv_app — recvmsg path on the receiver application cores.
  RxSyscall = 13,    // tcp_recvmsg + sock_def_readable: per-aggregate wakeup
  RxFragWalk = 14,   // skb frag walk + cmsg: per-MTU-fragment app residue
  RxCopyout = 15,    // skb_copy_datagram_iter (or MSG_TRUNC skip: zero)
};
inline constexpr int kPerfStageCount = 16;

// Short taxonomy name, e.g. "tx_user_copy" (JSON keys, flamegraph frames).
const char* perf_stage_name(PerfStage s);
// The kernel symbol the stage mirrors, e.g. "copy_user_enhanced_fast_string".
const char* perf_stage_symbol(PerfStage s);
// Which core group the stage's cycles land on.
PerfCore perf_stage_core(PerfStage s);
const char* perf_core_name(PerfCore c);

// The stages core group `c` owns: the PerfStage values [begin, end).
struct PerfStageRange {
  int begin;
  int end;
};
constexpr PerfStageRange perf_core_stages(PerfCore c) {
  switch (c) {
    case PerfCore::SndApp:
      return {static_cast<int>(PerfStage::TxSyscall), static_cast<int>(PerfStage::TxGsoSegment)};
    case PerfCore::SndIrq:
      return {static_cast<int>(PerfStage::TxGsoSegment), static_cast<int>(PerfStage::RxSkbAlloc)};
    case PerfCore::RcvApp:
      return {static_cast<int>(PerfStage::RxSyscall), kPerfStageCount};
    case PerfCore::RcvIrq:
      return {static_cast<int>(PerfStage::RxSkbAlloc), static_cast<int>(PerfStage::RxSyscall)};
  }
  return {0, 0};
}

using StageCycles = std::array<double, kPerfStageCount>;
using CoreCycles = std::array<double, kPerfCoreCount>;

// Entries of `row` summed over core group c's stages, in stage order.
double core_sum(const StageCycles& row, PerfCore c);

// What an engine charges one core group per unit of work (a payload byte,
// or a wire segment): per_byte, and the same charge split into the group's
// stages (every other entry 0). cpu::CostModel builds them.
struct StagePrice {
  double per_byte = 0.0;
  StageCycles stages{};
};

// Cycles one flow burned, by stage. Index with static_cast<int>(PerfStage).
struct PerfFlowCycles {
  int flow = 0;
  StageCycles stage_cycles{};
};

// One dtnsim-perf sample: the whole run's attribution as of time `ts`.
// stage_cycles is the exact split; consumed_cycles is what the engine
// actually charged its budgets per core group (the two must agree — see
// cross_check_stage_sum); capacity_cycles is the budget offered so far.
struct PerfReport {
  Nanos ts = 0;
  std::string engine;  // "fluid" | "packet"
  std::string label;   // test/cell name (merged dumps)
  double bytes_sent = 0.0;
  double bytes_delivered = 0.0;
  StageCycles stage_cycles{};
  CoreCycles consumed_cycles{};
  CoreCycles capacity_cycles{};
  std::vector<PerfFlowCycles> flows;

  // Charges `units` of work at `price` to core group `core`: the charge to
  // its consumed cycles, and each stage's share to that stage, in the run
  // total and in row `flow` of `flows` alike, so the rows always sum to the
  // total.
  void charge(std::size_t flow, PerfCore core, double units, const StagePrice& price) {
    const PerfStageRange r = perf_core_stages(core);
    for (int i = r.begin; i < r.end; ++i) {
      const auto s = static_cast<std::size_t>(i);
      const double cycles = units * price.stages[s];
      stage_cycles[s] += cycles;
      flows[flow].stage_cycles[s] += cycles;
    }
    consumed_cycles[static_cast<std::size_t>(core)] += units * price.per_byte;
  }

  // Summed stage cycles of all groups (one group's: core_sum).
  double total_cycles() const;
  // consumed/capacity for the group, clamped to [0, 1]; 0 when no capacity
  // was metered (the packet engine attributes IRQ cycles but meters no IRQ
  // capacity — its IRQ work rides inside the app-core service times).
  double core_utilization(PerfCore c) const;
  // Headline efficiency figures (the report header's cyc/B).
  double tx_cyc_per_byte() const;  // snd-side stages / bytes_sent
  double rx_cyc_per_byte() const;  // rcv-side stages / bytes_delivered
};

// ---- text renderers -------------------------------------------------------
// `perf report`-style table: Children/Self overhead, cycles, core, symbol —
// core header rows (Children = the group's share of all cycles) followed by
// that group's stages sorted by self cycles.
std::string format_perf_report(const PerfReport& r);
// Brendan Gregg collapsed-stack lines: "engine;core;symbol cycles\n",
// ready for flamegraph.pl. Zero-cycle stages are omitted.
std::string format_flamegraph(const PerfReport& r);
// Differential collapsed stacks, difffolded.pl shape: "stack beforeN afterN"
// per line (`dtnsim-perf --flame --diff A B`; feed to flamegraph.pl
// --negate for a red/blue diff). Stages zero in both reports are omitted;
// when the two reports come from different engines both use the shared
// root "dtnsim" so their frames align.
std::string format_flamegraph_diff(const PerfReport& before,
                                   const PerfReport& after);

// ---- JSON round-trip (dtnsim-perf --json, RunRecord::perf_log) ------------
// One key list per struct (util/fields.hpp) drives both directions.

// A stage cycle array as {"tx_syscall": cycles, ...}.
constexpr auto stage_cycle_fields(StageCycles& cycles) {
  return wire::keyed(
      kPerfStageCount, [](int i) { return perf_stage_name(static_cast<PerfStage>(i)); },
      [&cycles](int i) -> double& { return cycles[static_cast<std::size_t>(i)]; });
}

// One core group's entry in the "cores" object.
struct PerfCoreCycles {
  double& consumed;
  double& capacity;
};
template <class V>
void fields(V& v, PerfCoreCycles& c) {
  v("consumed_cycles", c.consumed);
  v("capacity_cycles", c.capacity);
}

template <class V>
constexpr void fields(V& v, PerfFlowCycles& f) {
  v("flow", f.flow);
  v("stages", stage_cycle_fields(f.stage_cycles));
}
static_assert(wire::field_count<PerfFlowCycles>() == wire::member_count<PerfFlowCycles>());

template <class V>
constexpr void fields(V& v, PerfReport& r) {
  v("ts_sec", wire::seconds(r.ts));
  v("engine", r.engine);
  v("label", r.label);
  v("bytes_sent", r.bytes_sent);
  v("bytes_delivered", r.bytes_delivered);
  v("stages", stage_cycle_fields(r.stage_cycles));
  v("cores", wire::keyed(
                 kPerfCoreCount, [](int c) { return perf_core_name(static_cast<PerfCore>(c)); },
                 [&r](int c) {
                   const auto i = static_cast<std::size_t>(c);
                   return PerfCoreCycles{r.consumed_cycles[i], r.capacity_cycles[i]};
                 }));
  v("flows", r.flows);
}
static_assert(wire::field_count<PerfReport>() == wire::member_count<PerfReport>());

// A watch log as one document: {"samples": [...]}.
struct PerfLog {
  std::vector<PerfReport>& samples;
};
template <class V>
void fields(V& v, PerfLog& log) {
  v("samples", log.samples);
}

Json to_json(const PerfReport& r);
Json perf_log_to_json(const std::vector<PerfReport>& log);

// The attribution integrity check: for every core group, summed stage
// cycles must equal the consumed-cycle figure the engine charged (per round
// in the fluid engine, per super-packet and per segment in the packet
// engine), to fp rounding. Throws std::logic_error on divergence — a stage
// split that doesn't add up to the charge would make the whole perf view a
// fabrication. The sampler runs this on every sample.
void cross_check_stage_sum(const PerfReport& report);

}  // namespace dtnsim::obs
