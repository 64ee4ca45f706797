// The dependency/layering analyzer — ddtr_lint's whole-program pass.
//
// Per-file rules catch local hazards; architectural rot is global. This
// pass parses every `#include` edge across src/, maps files to modules (the
// first component of the quoted include path: "core/explorer.h" → core),
// and enforces the layering contract declared in tools/lint/layers.lock:
//
//   layering            a module may only include modules its `layer`
//                       line lists (the contract is explicit, not
//                       inferred — adding a dependency is an edit to a
//                       checked-in file, reviewed like the accounting
//                       registry).
//   include-cycle       no cycle through quoted includes, ever.
//   include-unused      a direct include none of whose provided names
//                       appear in the includer is dead weight (the
//                       primary header and declared umbrella headers are
//                       exempt; zero extracted names means we stay
//                       quiet — the heuristic only fires when it can
//                       prove a candidate usage set).
//   include-transitive  a name uniquely provided by one header that is
//                       only reachable transitively should be included
//                       directly — transitive leaks break when the
//                       middleman drops its include.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "scan.h"

namespace ddtr::lint {

// Relative path of the layering contract within a repo root.
inline constexpr const char* kLayersLockPath = "tools/lint/layers.lock";

// The parsed tools/lint/layers.lock contract.
struct LayerContract {
  bool loaded = false;  // false → layering/IWYU passes are skipped
  // module → modules it may depend on (absence of a module means any
  // file in it fails layering until the contract names it).
  std::map<std::string, std::set<std::string>> allowed;
  // Repo-relative paths of umbrella (re-export) headers: exempt from
  // include-unused, and their includers receive their transitive
  // provisions.
  std::set<std::string> umbrella;
  // Path prefixes carved out of the determinism rule (e.g. "src/obs/").
  std::vector<std::string> determinism_exempt;
};

// Parses the lock-file text. Returns nullopt (with `error` set) on a
// malformed line; unknown directives are errors too, so typos fail loud.
std::optional<LayerContract> parse_layers(const std::string& text,
                                          std::string* error);

// Reads and parses <repo_root>/tools/lint/layers.lock; a missing file
// yields a default contract with loaded=false.
LayerContract load_layers(const std::string& repo_root, std::string* error);

// Module of a repo-relative path: "src/core/explorer.cc" → "core",
// "" when not under src/.
std::string module_of(const std::string& rel_path);

// Repo-relative path a quoted include resolves to ("core/explorer.h" →
// "src/core/explorer.h"). Angle includes are system headers — not ours.
std::string resolve_include(const std::string& target);

// Runs the layering + include-cycle + IWYU-lite checks over the scanned
// src/ files. Suppressions are NOT applied here — the driver owns that.
std::vector<Finding> analyze_dependencies(
    const std::vector<SourceFile>& files, const LayerContract& contract);

// Names a header offers its includers, extracted at namespace-transparent
// brace depth: type names (class/struct/enum/union), alias targets
// (`using X =`), function names, #define'd macros, and constexpr
// constants. Exposed for the unit tests.
std::set<std::string> provided_names(const SourceFile& file);

}  // namespace ddtr::lint
