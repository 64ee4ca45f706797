// The include-order rule.
//
// Include regions must follow the canonical order the tree already
// uses:
//
//   [primary header]          ("m/foo.h" from m/foo.cc)
//   [C++ standard headers]    (<...> without a dot)
//   [C/system headers]        (<...> with a dot)
//   [project headers]         ("...")
//
// alphabetical within each group, one blank line between groups.
// Regions are maximal runs of unconditional include lines and blanks;
// includes inside `#if` blocks or carrying trailing comments bound the
// region and are never flagged. A region is misordered exactly when its
// lines differ from the canonical form built from its includes.
#pragma once

#include <vector>

#include "scan.h"

namespace ddtr::lint {

// include-order findings: one per misordered region (anchored at the
// region's first line).
void check_include_order(const SourceFile& file, std::vector<Finding>& out);

}  // namespace ddtr::lint
