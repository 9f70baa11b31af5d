// zz-memory-order — every atomic call site names its ordering from the
// convention table in docs/ANALYSIS.md §10, Atomics (acquire enters,
// acq_rel hand-offs, release leaves, relaxed gauges). Two ways to dodge
// that discipline are flagged:
//   * an implicit seq_cst default argument (calling load()/store()/... of
//     an atomic type without spelling the order) — the silent strongest
//     ordering hides which edge the protocol actually needs;
//   * naming std::memory_order_seq_cst explicitly — seq_cst is outside
//     the convention table (no repo atomic needs it); a justified
//     exception takes a NOLINT with the reasoning (suppression policy in
//     docs/ANALYSIS.md §10).
#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace zz::tidy {

class MemoryOrderCheck : public clang::tidy::ClangTidyCheck {
 public:
  MemoryOrderCheck(llvm::StringRef Name,
                   clang::tidy::ClangTidyContext* Context)
      : ClangTidyCheck(Name, Context) {}
  void registerMatchers(clang::ast_matchers::MatchFinder* Finder) override;
  void check(
      const clang::ast_matchers::MatchFinder::MatchResult& Result) override;
};

}  // namespace zz::tidy
