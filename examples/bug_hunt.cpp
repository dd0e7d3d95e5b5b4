// bug_hunt: the rule-violation finder applied to the simulated kernel
// (paper Sec. 7.5). Runs the benchmark mix with the fault plan enabled,
// mines rules, then lists every context that contradicts a winning rule —
// including the i_flags bug a kernel developer confirmed for the paper.
//
// Usage: bug_hunt [--ops=20000] [--seed=1] [--tac=0.9] [--examples=12]
//                 [--workload=vfs|mm] [--clean] (disable all injected faults)
//
// --workload mm runs the address-space mix instead: mmap_lock is a range
// lock, and the seeded fault writes a vm_area_struct while holding the
// lock over a non-overlapping span, so the finder must reason by overlap.
#include <cstdio>
#include <string>

#include "src/core/analysis_context.h"
#include "src/core/pipeline.h"
#include "src/core/violation_finder.h"
#include "src/util/flags.h"
#include "src/util/stats.h"
#include "src/vfs/vfs_kernel.h"
#include "src/workload/workloads.h"

using namespace lockdoc;

int main(int argc, char** argv) {
  FlagSet flags;
  std::string error;
  if (!flags.Parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }

  MixOptions mix;
  mix.ops = flags.GetUint64("ops", 20000);
  mix.seed = flags.GetUint64("seed", 1);
  std::string workload = flags.GetString("workload", "vfs");
  if (workload != "vfs" && workload != "mm") {
    std::fprintf(stderr, "bug_hunt: --workload must be vfs or mm\n");
    return 1;
  }
  FaultPlan plan = flags.GetBool("clean", false) ? FaultPlan::Clean() : FaultPlan{};
  SimulationResult sim =
      workload == "mm" ? SimulateMmRun(mix, plan) : SimulateKernelRun(mix, plan);

  PipelineOptions options;
  options.filter = VfsKernel::MakeFilterConfig();
  options.derivator.accept_threshold = flags.GetDouble("tac", 0.9);
  PipelineResult result = RunPipeline(sim.trace, *sim.registry, options);

  AnalysisContext context(&result.snapshot, sim.registry.get());
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(result.rules);

  std::printf("=== violation summary per data type ===\n");
  TextTable table({"Data Type", "Events", "Members", "Contexts"});
  uint64_t total_events = 0;
  uint64_t total_contexts = 0;
  for (const ViolationSummaryRow& row : finder.Summarize(violations)) {
    table.AddRow({row.type_name, std::to_string(row.events), std::to_string(row.members),
                  std::to_string(row.contexts)});
    total_events += row.events;
    total_contexts += row.contexts;
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("total: %llu violating events at %llu contexts\n\n",
              static_cast<unsigned long long>(total_events),
              static_cast<unsigned long long>(total_contexts));

  size_t limit = flags.GetUint64("examples", 12);
  std::printf("=== top violation contexts ===\n");
  for (const CexGroupData& ex : finder.Forensics(violations, limit).groups) {
    std::printf("%s [%s]\n  rule: %s\n  held: %s\n  at %s (%llu events)\n  stack: %s\n\n",
                ex.member.c_str(), ex.access.c_str(), ex.rule.c_str(), ex.held.c_str(),
                ex.location.c_str(), static_cast<unsigned long long>(ex.events),
                ex.stack.c_str());
  }
  return 0;
}
