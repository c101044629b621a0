// Link-time spans around BrickSim's layer entry points (traced binary only).
//
// The traced binary links the unchanged BrickSim libraries with
// `-Wl,--wrap=<symbol>` for every symbol wrapped below (CMakeLists.txt
// collects the list from the `__wrap_` labels in this file).  The linker
// then sends every cross-object call to <symbol> through __wrap_<symbol>,
// which opens a trace::Span and forwards to the original, __real_<symbol>.
// This measures each layer from outside: the program itself carries no
// instrumentation.
//
// Each wrapper is declared with the wrapped function's exact parameter and
// return types; member functions take `this` as their first parameter,
// which is where the Itanium C++ ABI passes it.  A signature change in
// BrickSim changes the mangled name, so the stale wrapper's __real_ symbol
// stays undefined and the traced build fails to link instead of calling
// through a mismatched signature.  Calls inside one object file (such as
// Launcher::run into its private prepare_impl) never reach a wrapper.
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>

#include "analysis/brickcheck.h"
#include "brick/brick.h"
#include "codegen/codegen.h"
#include "harness/harness.h"
#include "harness/sweepcache.h"
#include "ir/regalloc.h"
#include "model/launcher.h"
#include "roofline/roofline.h"
#include "simt/execplan.h"
#include "simt/machine.h"
#include "trace.h"

namespace bs = bricksim;
using perfbench::trace::Span;

#define PB_REAL(sym) __asm__("__real_" sym)
#define PB_WRAP(sym) __asm__("__wrap_" sym)

// --- codegen / ir / analysis / brick -----------------------------------------

#define SYM_LOWER "_ZN8bricksim7codegen5lowerERKNS_3dsl7StencilENS0_7VariantEiRKNS0_7OptionsERKNS0_13LoweringCostsE"
bs::codegen::LoweredKernel real_lower(const bs::dsl::Stencil&,
                                      bs::codegen::Variant, int,
                                      const bs::codegen::Options&,
                                      const bs::codegen::LoweringCosts&)
    PB_REAL(SYM_LOWER);
bs::codegen::LoweredKernel wrap_lower(const bs::dsl::Stencil&,
                                      bs::codegen::Variant, int,
                                      const bs::codegen::Options&,
                                      const bs::codegen::LoweringCosts&)
    PB_WRAP(SYM_LOWER);
bs::codegen::LoweredKernel wrap_lower(const bs::dsl::Stencil& s,
                                      bs::codegen::Variant v, int w,
                                      const bs::codegen::Options& o,
                                      const bs::codegen::LoweringCosts& c) {
  Span span("codegen.lower");
  return real_lower(s, v, w, o, c);
}

#define SYM_REGALLOC "_ZN8bricksim2ir18allocate_registersERKNS0_7ProgramEi"
bs::ir::RegAllocResult real_regalloc(const bs::ir::Program&, int)
    PB_REAL(SYM_REGALLOC);
bs::ir::RegAllocResult wrap_regalloc(const bs::ir::Program&, int)
    PB_WRAP(SYM_REGALLOC);
bs::ir::RegAllocResult wrap_regalloc(const bs::ir::Program& p, int budget) {
  Span span("ir.regalloc");
  return real_regalloc(p, budget);
}

#define SYM_CHECK "_ZN8bricksim8analysis5checkERKNS_2ir7ProgramERKNS0_10LaunchGeomE"
bs::analysis::Report real_check(const bs::ir::Program&,
                                const bs::analysis::LaunchGeom&)
    PB_REAL(SYM_CHECK);
bs::analysis::Report wrap_check(const bs::ir::Program&,
                                const bs::analysis::LaunchGeom&)
    PB_WRAP(SYM_CHECK);
bs::analysis::Report wrap_check(const bs::ir::Program& p,
                                const bs::analysis::LaunchGeom& g) {
  Span span("analysis.brickcheck");
  return real_check(p, g);
}

#define SYM_DECOMP "_ZN8bricksim5brick11BrickDecompC1ENS_4Vec3ENS0_9BrickDimsEbm"
void real_decomp(bs::brick::BrickDecomp*, bs::Vec3, bs::brick::BrickDims,
                 bool, std::uint64_t) PB_REAL(SYM_DECOMP);
void wrap_decomp(bs::brick::BrickDecomp*, bs::Vec3, bs::brick::BrickDims,
                 bool, std::uint64_t) PB_WRAP(SYM_DECOMP);
void wrap_decomp(bs::brick::BrickDecomp* self, bs::Vec3 interior,
                 bs::brick::BrickDims dims, bool shuffled,
                 std::uint64_t seed) {
  Span span("brick.decomp");
  real_decomp(self, interior, dims, shuffled, seed);
}

// --- model -------------------------------------------------------------------

#define SYM_LAUNCH "_ZNK8bricksim5model8Launcher3runERKNS_3dsl7StencilENS_7codegen7VariantERKNS0_8PlatformERKNS6_7OptionsE"
bs::model::LaunchResult real_launch(const bs::model::Launcher*,
                                    const bs::dsl::Stencil&,
                                    bs::codegen::Variant,
                                    const bs::model::Platform&,
                                    const bs::codegen::Options&)
    PB_REAL(SYM_LAUNCH);
bs::model::LaunchResult wrap_launch(const bs::model::Launcher*,
                                    const bs::dsl::Stencil&,
                                    bs::codegen::Variant,
                                    const bs::model::Platform&,
                                    const bs::codegen::Options&)
    PB_WRAP(SYM_LAUNCH);
bs::model::LaunchResult wrap_launch(const bs::model::Launcher* self,
                                    const bs::dsl::Stencil& s,
                                    bs::codegen::Variant v,
                                    const bs::model::Platform& p,
                                    const bs::codegen::Options& o) {
  Span span("model.launch");
  return real_launch(self, s, v, p, o);
}

#define SYM_PREPARE "_ZNK8bricksim5model8Launcher7prepareERKNS_3dsl7StencilENS_7codegen7VariantERKNS0_8PlatformERKNS6_7OptionsE"
bs::model::PreparedLaunch real_prepare(const bs::model::Launcher*,
                                       const bs::dsl::Stencil&,
                                       bs::codegen::Variant,
                                       const bs::model::Platform&,
                                       const bs::codegen::Options&)
    PB_REAL(SYM_PREPARE);
bs::model::PreparedLaunch wrap_prepare(const bs::model::Launcher*,
                                       const bs::dsl::Stencil&,
                                       bs::codegen::Variant,
                                       const bs::model::Platform&,
                                       const bs::codegen::Options&)
    PB_WRAP(SYM_PREPARE);
bs::model::PreparedLaunch wrap_prepare(const bs::model::Launcher* self,
                                       const bs::dsl::Stencil& s,
                                       bs::codegen::Variant v,
                                       const bs::model::Platform& p,
                                       const bs::codegen::Options& o) {
  Span span("model.prepare");
  return real_prepare(self, s, v, p, o);
}

// --- simt --------------------------------------------------------------------

#define SYM_MACHINE "_ZN8bricksim4simt7MachineC1ERKNS_4arch7GpuArchE"
void real_machine(bs::simt::Machine*, const bs::arch::GpuArch&)
    PB_REAL(SYM_MACHINE);
void wrap_machine(bs::simt::Machine*, const bs::arch::GpuArch&)
    PB_WRAP(SYM_MACHINE);
void wrap_machine(bs::simt::Machine* self, const bs::arch::GpuArch& a) {
  Span span("simt.machine_init");
  real_machine(self, a);
}

#define SYM_MACHINE_RUN "_ZN8bricksim4simt7Machine3runERKNS0_6KernelENS0_8ExecModeENS0_6EngineEi"
bs::simt::KernelReport real_machine_run(bs::simt::Machine*,
                                        const bs::simt::Kernel&,
                                        bs::simt::ExecMode, bs::simt::Engine,
                                        int) PB_REAL(SYM_MACHINE_RUN);
bs::simt::KernelReport wrap_machine_run(bs::simt::Machine*,
                                        const bs::simt::Kernel&,
                                        bs::simt::ExecMode, bs::simt::Engine,
                                        int) PB_WRAP(SYM_MACHINE_RUN);
bs::simt::KernelReport wrap_machine_run(bs::simt::Machine* self,
                                        const bs::simt::Kernel& k,
                                        bs::simt::ExecMode m,
                                        bs::simt::Engine e, int shards) {
  Span span("simt.machine_run");
  return real_machine_run(self, k, m, e, shards);
}

#define SYM_DECODE "_ZN8bricksim4simt8ExecPlanC1ERKNS0_6KernelERKNS_4arch7GpuArchENS0_8ExecModeE"
void real_decode(bs::simt::ExecPlan*, const bs::simt::Kernel&,
                 const bs::arch::GpuArch&, bs::simt::ExecMode)
    PB_REAL(SYM_DECODE);
void wrap_decode(bs::simt::ExecPlan*, const bs::simt::Kernel&,
                 const bs::arch::GpuArch&, bs::simt::ExecMode)
    PB_WRAP(SYM_DECODE);
void wrap_decode(bs::simt::ExecPlan* self, const bs::simt::Kernel& k,
                 const bs::arch::GpuArch& a, bs::simt::ExecMode m) {
  Span span("simt.decode");
  real_decode(self, k, a, m);
  span.arg(0, self->lump_factor());
}

namespace {
void annotate_replay(Span& span, const bs::simt::KernelReport& r) {
  span.arg(0, static_cast<double>(r.blocks_run));
  span.arg(1, static_cast<double>(r.traffic.l1_hits + r.traffic.l1_misses));
}
}  // namespace

#define SYM_REPLAY "_ZNK8bricksim4simt8ExecPlan6replayERNS_6memsim15MemoryHierarchyE"
bs::simt::KernelReport real_replay(const bs::simt::ExecPlan*,
                                   bs::memsim::MemoryHierarchy&)
    PB_REAL(SYM_REPLAY);
bs::simt::KernelReport wrap_replay(const bs::simt::ExecPlan*,
                                   bs::memsim::MemoryHierarchy&)
    PB_WRAP(SYM_REPLAY);
bs::simt::KernelReport wrap_replay(const bs::simt::ExecPlan* self,
                                   bs::memsim::MemoryHierarchy& h) {
  Span span("simt.replay");
  bs::simt::KernelReport r = real_replay(self, h);
  annotate_replay(span, r);
  return r;
}

#define SYM_REPLAY_SHARDED "_ZNK8bricksim4simt8ExecPlan14replay_shardedERNS_6memsim15MemoryHierarchyEi"
bs::simt::KernelReport real_replay_sharded(const bs::simt::ExecPlan*,
                                           bs::memsim::MemoryHierarchy&, int)
    PB_REAL(SYM_REPLAY_SHARDED);
bs::simt::KernelReport wrap_replay_sharded(const bs::simt::ExecPlan*,
                                           bs::memsim::MemoryHierarchy&, int)
    PB_WRAP(SYM_REPLAY_SHARDED);
bs::simt::KernelReport wrap_replay_sharded(const bs::simt::ExecPlan* self,
                                           bs::memsim::MemoryHierarchy& h,
                                           int shards) {
  Span span("simt.replay_sharded");
  bs::simt::KernelReport r = real_replay_sharded(self, h, shards);
  annotate_replay(span, r);
  span.arg(2, shards);
  return r;
}

// --- roofline ----------------------------------------------------------------

#define SYM_MIXBENCH "_ZN8bricksim8roofline8mixbenchERKNS_5model8PlatformENS_4Vec3E"
bs::roofline::EmpiricalRoofline real_mixbench(const bs::model::Platform&,
                                              bs::Vec3) PB_REAL(SYM_MIXBENCH);
bs::roofline::EmpiricalRoofline wrap_mixbench(const bs::model::Platform&,
                                              bs::Vec3) PB_WRAP(SYM_MIXBENCH);
bs::roofline::EmpiricalRoofline wrap_mixbench(const bs::model::Platform& p,
                                              bs::Vec3 domain) {
  Span span("roofline.mixbench");
  return real_mixbench(p, domain);
}

// --- harness -----------------------------------------------------------------

#define SYM_RUN_SWEEP "_ZN8bricksim7harness9run_sweepERKNS0_11SweepConfigE"
bs::harness::Sweep real_run_sweep(const bs::harness::SweepConfig&)
    PB_REAL(SYM_RUN_SWEEP);
bs::harness::Sweep wrap_run_sweep(const bs::harness::SweepConfig&)
    PB_WRAP(SYM_RUN_SWEEP);
bs::harness::Sweep wrap_run_sweep(const bs::harness::SweepConfig& c) {
  Span span("harness.run_sweep");
  return real_run_sweep(c);
}

#define SYM_STORE "_ZN8bricksim7harness18store_cached_sweepERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_5SweepE"
void real_store(const std::string&, const bs::harness::Sweep&)
    PB_REAL(SYM_STORE);
void wrap_store(const std::string&, const bs::harness::Sweep&)
    PB_WRAP(SYM_STORE);
void wrap_store(const std::string& dir, const bs::harness::Sweep& sweep) {
  Span span("harness.cache_store");
  real_store(dir, sweep);
  if (perfbench::trace::armed()) {
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(
        bs::harness::cache_entry_path(dir, sweep.config), ec);
    span.arg(0, ec ? 0.0 : static_cast<double>(bytes));
  }
}

#define SYM_LOAD "_ZN8bricksim7harness17load_cached_sweepERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_11SweepConfigE"
std::optional<bs::harness::Sweep> real_load(const std::string&,
                                            const bs::harness::SweepConfig&)
    PB_REAL(SYM_LOAD);
std::optional<bs::harness::Sweep> wrap_load(const std::string&,
                                            const bs::harness::SweepConfig&)
    PB_WRAP(SYM_LOAD);
std::optional<bs::harness::Sweep> wrap_load(
    const std::string& dir, const bs::harness::SweepConfig& config) {
  Span span("harness.cache_load");
  std::optional<bs::harness::Sweep> s = real_load(dir, config);
  span.arg(0, s ? 1.0 : 0.0);
  return s;
}

// The emitters: one span name per table builder, all under harness.emit.
#define PB_EMITTER(fn, ret, sym, ...)                         \
  ret real_##fn(__VA_ARGS__) PB_REAL(sym);                    \
  ret wrap_##fn(__VA_ARGS__) PB_WRAP(sym);
#define PB_EMIT0(fn, sym)                                     \
  PB_EMITTER(fn, bs::Table, sym)                              \
  bs::Table wrap_##fn() {                                     \
    Span span("harness.emit." #fn);                           \
    return real_##fn();                                       \
  }
#define PB_EMIT1(fn, ret, sym)                                \
  PB_EMITTER(fn, ret, sym, const bs::harness::Sweep&)         \
  ret wrap_##fn(const bs::harness::Sweep& s) {                \
    Span span("harness.emit." #fn);                           \
    return real_##fn(s);                                      \
  }

PB_EMIT0(table1, "_ZN8bricksim7harness11make_table1Ev")
PB_EMIT0(table2, "_ZN8bricksim7harness11make_table2Ev")
PB_EMIT0(table4, "_ZN8bricksim7harness11make_table4Ev")
PB_EMIT1(table3, bs::Table, "_ZN8bricksim7harness11make_table3ERKNS0_5SweepE")
PB_EMIT1(table5, bs::Table, "_ZN8bricksim7harness11make_table5ERKNS0_5SweepE")
PB_EMIT1(fig3, bs::Table, "_ZN8bricksim7harness9make_fig3ERKNS0_5SweepE")
PB_EMIT1(fig4, bs::Table, "_ZN8bricksim7harness9make_fig4ERKNS0_5SweepE")
PB_EMIT1(fig5, bs::harness::CorrTables,
         "_ZN8bricksim7harness9make_fig5ERKNS0_5SweepE")
PB_EMIT1(fig6, bs::harness::CorrTables,
         "_ZN8bricksim7harness9make_fig6ERKNS0_5SweepE")
PB_EMIT1(fig7, bs::Table, "_ZN8bricksim7harness9make_fig7ERKNS0_5SweepE")
PB_EMIT1(check_summary, bs::Table,
         "_ZN8bricksim7harness18make_check_summaryERKNS0_5SweepE")
