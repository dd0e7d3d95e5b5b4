// Tab. 8 reproduction: concrete locking-rule violation examples — for each,
// the member, the locks that should have been held (the mined rule), the
// locks actually held, and the source context. Includes the paper's three
// showcased findings: inode.i_hash in __remove_inode_hash (fs/inode.c),
// journal_t.j_committing_transaction under EO(i_rwsem) -> ES(j_state_lock)
// (fs/ext4/inode.c), and dentry.d_subdirs under EO(i_rwsem) -> rcu
// (fs/libfs.c).
#include <cstdio>

#include "bench/common.h"
#include "src/core/violation_finder.h"
#include "src/util/flags.h"

using namespace lockdoc;

int main(int argc, char** argv) {
  StandardRun run = RunStandardEvaluation(argc, argv);

  FlagSet flags;
  std::string error;
  flags.Parse(argc, argv, &error);
  size_t limit = flags.GetUint64("examples", 10);

  AnalysisContext context = ContextFor(run);
  ViolationFinder finder(context);
  std::vector<Violation> violations = finder.FindAll(run.pipeline.rules);

  std::printf("Tab. 8 — locking-rule violation examples\n\n");
  for (const CexGroupData& ex : finder.Forensics(violations, limit).groups) {
    std::printf("%s [%s]\n", ex.member.c_str(), ex.access.c_str());
    std::printf("  rule:     %s\n", ex.rule.c_str());
    std::printf("  held:     %s\n", ex.held.c_str());
    std::printf("  location: %s (%llu events)\n", ex.location.c_str(),
                static_cast<unsigned long long>(ex.events));
    std::printf("  stack:    %s\n\n", ex.stack.c_str());
  }
  std::printf("paper Tab. 8: inode:ext4.i_hash held inode_hash_lock -> EO(i_lock) at\n"
              "fs/inode.c:507; journal_t.j_committing_transaction held EO(i_rwsem) ->\n"
              "ES(j_state_lock) at fs/ext4/inode.c:4685; dentry.d_subdirs held\n"
              "EO(i_rwsem) -> rcu at fs/libfs.c:104.\n");
  return 0;
}
