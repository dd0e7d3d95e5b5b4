// Fig. 7 reproduction: fraction of "no lock" winning hypotheses as a
// function of the acceptance threshold tac in [0.7, 1.0], per observed data
// type (inode subclasses excluded for clarity, as in the paper) and per
// access direction. Expected shape: the fraction grows with tac and levels
// off as tac -> 1; writes generally retain more lock rules than reads.
#include <cstdio>
#include <map>
#include <vector>

#include "bench/common.h"
#include "src/util/stats.h"
#include "src/util/string_util.h"

using namespace lockdoc;

int main(int argc, char** argv) {
  StandardRun run = RunStandardEvaluation(argc, argv);
  const TypeRegistry& registry = *run.sim.registry;
  TypeId inode_type = *registry.FindType("inode");

  const std::vector<double> thresholds = {0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 1.00};

  std::printf("Fig. 7 — fraction of \"no lock\" winners vs acceptance threshold\n\n");
  for (AccessType access : {AccessType::kRead, AccessType::kWrite}) {
    std::printf("access type: %s\n", access == AccessType::kRead ? "r" : "w");
    std::vector<std::string> header = {"Data Type"};
    for (double tac : thresholds) {
      header.push_back(StrFormat("%.0f%%", tac * 100));
    }
    TextTable table(header);

    // type -> per-threshold (no-lock count, total).
    std::map<TypeId, std::vector<std::pair<uint64_t, uint64_t>>> counts;
    for (size_t t = 0; t < thresholds.size(); ++t) {
      DerivatorOptions options;
      options.accept_threshold = thresholds[t];
      RuleDerivator derivator(options);
      for (const MemberObsKey& key : run.pipeline.snapshot.observations.keys()) {
        if (key.type == inode_type) {
          continue;  // The paper's Fig. 7 excludes the inode subclasses.
        }
        DerivationResult result = derivator.Derive(run.pipeline.snapshot.observations, key, access);
        if (!result.observed()) {
          continue;
        }
        auto& row = counts[key.type];
        row.resize(thresholds.size());
        row[t].second += 1;
        row[t].first += result.winner_is_no_lock() ? 1 : 0;
      }
    }
    for (const auto& [type, row] : counts) {
      std::vector<std::string> cells = {registry.layout(type).name()};
      for (const auto& [no_lock, total] : row) {
        cells.push_back(total == 0
                            ? "-"
                            : StrFormat("%.0f%%", 100.0 * static_cast<double>(no_lock) /
                                                      static_cast<double>(total)));
      }
      table.AddRow(cells);
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  std::printf("paper Fig. 7: fractions rise with tac and level off near 90%%; for several\n");
  std::printf("types the write curves stay below 100%% even at tac = 1.\n");
  return 0;
}
