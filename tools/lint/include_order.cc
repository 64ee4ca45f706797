#include "include_order.h"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

namespace ddtr::lint {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (start < text.size()) lines.push_back(text.substr(start));
  return lines;
}

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string stem_of(const std::string& path) {
  std::string base = basename_of(normalize_path(path));
  const std::size_t dot = base.rfind('.');
  if (dot != std::string::npos) base.resize(dot);
  return base;
}

// Is this quoted include the file's own header? ("m/foo.h" from any
// foo.cc — matched on the basename so the rule works for src/ and
// tools/ layouts alike.)
bool is_primary(const SourceFile& file, const IncludeDirective& inc) {
  if (inc.angle) return false;
  const std::string p = normalize_path(file.path);
  if (!p.ends_with(".cc") && !p.ends_with(".cpp")) return false;
  return basename_of(normalize_path(inc.target)) == stem_of(p) + ".h";
}

enum class Group : int {
  kPrimary = 0,
  kCxxStd = 1,   // <...> without a dot
  kCSystem = 2,  // <...> with a dot
  kProject = 3,  // "..."
};

Group group_of(const SourceFile& file, const IncludeDirective& inc) {
  if (is_primary(file, inc)) return Group::kPrimary;
  if (inc.angle) {
    return inc.target.find('.') == std::string::npos ? Group::kCxxStd
                                                     : Group::kCSystem;
  }
  return Group::kProject;
}

struct Region {
  std::size_t first_line = 0;  // 1-based, inclusive
  std::size_t last_line = 0;
  std::vector<const IncludeDirective*> includes;
};

// Maximal runs of checked include lines (unconditional, no trailing
// comment, nothing else on the line) and interior blanks. Anything else
// — code, comments, preprocessor conditionals, commented includes —
// bounds the region and is never crossed.
std::vector<Region> find_regions(const SourceFile& file) {
  const Scrubbed& s = file.scrubbed;
  std::map<std::size_t, const IncludeDirective*> by_line;
  for (const IncludeDirective& inc : file.includes) {
    if (inc.conditional) continue;
    if (inc.line <= s.comment.size() && !s.comment[inc.line - 1].empty())
      continue;  // trailing comment — bounds the region
    by_line[inc.line] = &inc;
  }
  std::vector<Region> regions;
  Region cur;
  const std::size_t n = s.line_off.size();
  const auto flush = [&] {
    if (!cur.includes.empty()) regions.push_back(cur);
    cur = Region{};
  };
  for (std::size_t line = 1; line <= n; ++line) {
    const auto it = by_line.find(line);
    if (it != by_line.end()) {
      if (cur.includes.empty()) cur.first_line = line;
      cur.last_line = line;
      cur.includes.push_back(it->second);
      continue;
    }
    const bool blank =
        trimmed(code_line(s, line)).empty() &&
        (line > s.comment.size() || s.comment[line - 1].empty());
    if (blank && !cur.includes.empty()) continue;  // interior/trailing blank
    flush();
  }
  flush();
  return regions;
}

std::vector<std::string> canonical_region(const SourceFile& file,
                                          const Region& region) {
  struct Entry {
    int group;
    std::string target;
    bool angle;
  };
  std::vector<Entry> entries;
  for (const IncludeDirective* inc : region.includes) {
    entries.push_back(
        {static_cast<int>(group_of(file, *inc)), inc->target, inc->angle});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return std::tie(a.group, a.target) <
                            std::tie(b.group, b.target);
                   });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.group == b.group &&
                                     a.target == b.target &&
                                     a.angle == b.angle;
                            }),
                entries.end());
  std::vector<std::string> lines;
  int last_group = -1;
  for (const Entry& e : entries) {
    if (last_group != -1 && e.group != last_group) lines.push_back("");
    last_group = e.group;
    lines.push_back(e.angle ? "#include <" + e.target + ">"
                            : "#include \"" + e.target + "\"");
  }
  return lines;
}

}  // namespace

void check_include_order(const SourceFile& file, std::vector<Finding>& out) {
  const std::vector<std::string> lines = split_lines(file.content);
  for (const Region& region : find_regions(file)) {
    std::vector<std::string> original(
        lines.begin() + static_cast<std::ptrdiff_t>(region.first_line - 1),
        lines.begin() + static_cast<std::ptrdiff_t>(region.last_line));
    if (original == canonical_region(file, region)) continue;
    out.push_back(
        {file.path, region.first_line, "include-order",
         "include block is not in canonical order (primary header, "
         "<c++-std>, <system.h>, \"project\" — alphabetical within "
         "groups)",
         "reorder the block by hand into those groups, one blank line "
         "between groups, each include once"});
  }
}

}  // namespace ddtr::lint
