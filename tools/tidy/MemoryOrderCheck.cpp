#include "MemoryOrderCheck.h"

#include "clang/AST/ASTContext.h"
#include "clang/AST/ExprCXX.h"
#include "clang/ASTMatchers/ASTMatchers.h"

namespace zz::tidy {

using namespace clang::ast_matchers;  // NOLINT: matcher DSL convention

void MemoryOrderCheck::registerMatchers(MatchFinder* Finder) {
  // A memory_order parameter filled in by its default argument. The
  // parameter type (not the callee's class) is the anchor, so this covers
  // std::atomic members, the libstdc++/libc++ __atomic_base bases they
  // inherit from, and the std::atomic_* free functions alike.
  Finder->addMatcher(
      callExpr(forEachArgumentWithParam(
                   cxxDefaultArgExpr().bind("default-order"),
                   parmVarDecl(hasType(namedDecl(
                       hasAnyName("::std::memory_order",
                                  "::std::__1::memory_order"))))))
          .bind("defaulted-call"),
      this);
  // Explicitly spelled seq_cst: the C++17 enumerator and the C++20
  // inline-variable alias of the scoped enumerator.
  Finder->addMatcher(
      declRefExpr(to(namedDecl(hasAnyName("::std::memory_order_seq_cst",
                                          "::std::memory_order::seq_cst"))))
          .bind("seq-cst-ref"),
      this);
}

void MemoryOrderCheck::check(const MatchFinder::MatchResult& Result) {
  if (const auto* Call =
          Result.Nodes.getNodeAs<clang::CallExpr>("defaulted-call")) {
    diag(Call->getBeginLoc(),
         "atomic operation relies on the implicit seq_cst default; name "
         "the ordering from the convention table (docs/ANALYSIS.md "
         "sec. 10, Atomics) at every call site");
    return;
  }
  if (const auto* Ref =
          Result.Nodes.getNodeAs<clang::DeclRefExpr>("seq-cst-ref")) {
    diag(Ref->getBeginLoc(),
         "seq_cst is outside the repo's ordering convention table "
         "(docs/ANALYSIS.md sec. 10, Atomics); pick the weakest order the "
         "edge needs, or NOLINT with the justification");
  }
}

}  // namespace zz::tidy
