// The zz domain clang-tidy module: registers the five project-invariant
// checks under the `zz-` prefix (docs/ANALYSIS.md §8, §10). Built as a
// plugin (`-load libzz_tidy_checks.so`) against the clang-tidy the host
// provides; all clang/llvm symbols resolve from the loading clang-tidy
// binary.
#include "ArenaSlotEscapeCheck.h"
#include "DecodeCacheFingerprintCheck.h"
#include "LayeringCheck.h"
#include "MemoryOrderCheck.h"
#include "NondeterminismCheck.h"
#include "clang-tidy/ClangTidyModule.h"
#include "clang-tidy/ClangTidyModuleRegistry.h"

namespace zz::tidy {

class ZzModule : public clang::tidy::ClangTidyModule {
 public:
  void addCheckFactories(
      clang::tidy::ClangTidyCheckFactories& CheckFactories) override {
    CheckFactories.registerCheck<DecodeCacheFingerprintCheck>(
        "zz-decodecache-fingerprint-complete");
    CheckFactories.registerCheck<ArenaSlotEscapeCheck>("zz-arena-slot-escape");
    CheckFactories.registerCheck<NondeterminismCheck>("zz-nondeterminism");
    CheckFactories.registerCheck<LayeringCheck>("zz-layering");
    CheckFactories.registerCheck<MemoryOrderCheck>("zz-memory-order");
  }
};

}  // namespace zz::tidy

namespace clang::tidy {

static ClangTidyModuleRegistry::Add<zz::tidy::ZzModule> X(
    "zz-module", "zz domain-invariant checks (ZigZag decoding repo)");

// Anchor so `-load` keeps the registration object file.
volatile int ZzModuleAnchorSource = 0;  // NOLINT

}  // namespace clang::tidy
