// The full LockDoc report: every analysis the paper's evaluation runs —
// trace statistics, documentation validation, rule mining summary,
// violations, lock ordering — rendered into one text document. This is the
// artifact a kernel developer would actually read; the per-table bench
// binaries exist to compare against the paper, this exists to be used.
#ifndef SRC_CORE_REPORT_H_
#define SRC_CORE_REPORT_H_

#include "src/core/analysis_context.h"
#include "src/report/ir.h"

namespace lockdoc {

// Builds the complete report as a structured document from a shared
// analysis context: rules, observation indexes, and the lock-order graph
// all come from (and are memoized in) `context`, so a multi-pass run pays
// for each at most once. The context must carry a type registry. Reads
// four knobs of `opts`: `documented_rules_text` (validated when non-empty),
// `report_full` (embed the generated documentation of every population),
// `violation_limit` (counterexample groups listed; clipping is reported,
// never silent) and `forensics_filter`. The `report` pass renders it.
ReportDocument BuildReportDocument(AnalysisContext& context, const PassOptions& opts);

}  // namespace lockdoc

#endif  // SRC_CORE_REPORT_H_
