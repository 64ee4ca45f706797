#include "locks.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

namespace ddtr::lint {
namespace {

bool guard_type(std::string_view tok) {
  return tok == "lock_guard" || tok == "unique_lock" || tok == "scoped_lock";
}

// `<module>/<stem>` of a repo-relative path: "src/core/explorer.cc" →
// "core/explorer". Header/impl pairs share a stem, so a mutex locked in
// both files is one node.
std::string file_qualifier(const std::string& path) {
  std::string p = normalize_path(path);
  if (p.rfind("src/", 0) == 0) p = p.substr(4);
  const std::size_t dot = p.rfind('.');
  if (dot != std::string::npos) p.resize(dot);
  return p;
}

// The last identifier token of a mutex expression names the mutex:
// `mu_` → mu_, `state->mu` → mu, `*mu` → mu, `io_mutex()` → io_mutex.
std::string mutex_token(const std::string& expr) {
  std::string last;
  for (std::size_t i = 0; i < expr.size(); ++i) {
    if (!ident_char(expr[i]) || (i > 0 && ident_char(expr[i - 1]))) continue;
    std::size_t e = i;
    while (e < expr.size() && ident_char(expr[e])) ++e;
    last = expr.substr(i, e - i);
    i = e - 1;
  }
  return last;
}

std::size_t skip_ws(const std::string& code, std::size_t i) {
  while (i < code.size() && std::isspace(static_cast<unsigned char>(code[i])))
    ++i;
  return i;
}

// Splits the contents of a balanced `(...)` at top-level commas.
std::vector<std::string> split_args(const std::string& args) {
  std::vector<std::string> out;
  int paren = 0, brace = 0, bracket = 0, angle = 0;
  std::string cur;
  for (char c : args) {
    if (c == '(') ++paren;
    if (c == ')') --paren;
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (c == ',' && paren == 0 && brace == 0 && bracket == 0 && angle == 0) {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    cur += c;
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

struct CallSite {
  std::string callee;
  std::size_t line = 0;
  std::vector<std::string> held;  // qualified mutexes active at the call
};

struct FuncLocks {
  const SourceFile* file = nullptr;
  const FuncDef* def = nullptr;
  std::set<std::string> acquires;  // qualified mutexes taken directly
  std::vector<CallSite> calls;
};

struct Edge {
  std::string witness;  // "path:line (fn)" of the first observation
};

struct LockWorld {
  // held-mutex → then-acquired-mutex, with the first witness.
  std::map<std::string, std::map<std::string, Edge>> edges;
  std::vector<Finding> findings;
  std::map<std::string, std::vector<FuncLocks>> by_name;  // per file+name
};

// Walks one function body: tracks brace depth, guard lifetimes and
// `.unlock()` releases, records acquisition edges, same-scope
// re-acquisitions, and call sites with the held set.
void scan_function(const SourceFile& file, const FuncDef& def,
                   const std::set<std::string>& local_fns, LockWorld& world,
                   FuncLocks& fl) {
  const Scrubbed& s = file.scrubbed;
  const std::string& code = s.code;
  const std::string qual = file_qualifier(file.path);

  struct Guard {
    std::string var;
    std::string mutex;  // qualified; empty for deferred guards
    int depth = 0;
  };
  std::vector<Guard> active;
  int depth = 0;

  const auto add_edge = [&](const std::string& from, const std::string& to,
                            std::size_t line) {
    auto& e = world.edges[from];
    if (e.find(to) == e.end()) {
      e[to] = {file.path + ":" + std::to_string(line) + " (" + def.name +
               ")"};
    }
  };

  const auto acquire = [&](const std::string& mutex, const std::string& var,
                           std::size_t line) {
    for (const Guard& g : active) {
      if (g.mutex.empty()) continue;
      if (g.mutex == mutex) {
        std::string message = "`";
        message += mutex_token(mutex);
        message +=
            "` is already held in this scope chain — re-acquiring a "
            "non-recursive mutex deadlocks";
        world.findings.push_back(
            {file.path, line, "lock-order", std::move(message),
             "release the outer guard first or restructure so one scope "
             "owns the lock"});
      } else {
        add_edge(g.mutex, mutex, line);
      }
    }
    active.push_back({var, mutex, depth});
    fl.acquires.insert(mutex);
  };

  for (std::size_t i = def.body_begin; i < def.body_end; ++i) {
    const char c = code[i];
    if (c == '[') {
      // Subscripts follow a value (`arr[i]`, `f()[0]`); anything else
      // opening a bracket here is a lambda introducer (or an attribute,
      // which fails the body-shape test below). A lambda body runs when
      // the callee invokes it — on a pool thread, after the enclosing
      // scope unwinds — so guards held at the definition site say
      // nothing about the locks it takes. Skip the whole expression.
      std::size_t back = i;
      while (back > def.body_begin &&
             (code[back - 1] == ' ' || code[back - 1] == '\t' ||
              code[back - 1] == '\n')) {
        --back;
      }
      const char prev = back > def.body_begin ? code[back - 1] : '\0';
      if (!ident_char(prev) && prev != ')' && prev != ']') {
        int d = 0;
        std::size_t j = i;
        for (; j < def.body_end; ++j) {
          if (code[j] == '[') ++d;
          if (code[j] == ']' && --d == 0) break;
        }
        std::size_t k = j < def.body_end ? skip_ws(code, j + 1) : def.body_end;
        if (k < def.body_end && code[k] == '(') {
          int pd = 0;
          for (; k < def.body_end; ++k) {
            if (code[k] == '(') ++pd;
            if (code[k] == ')' && --pd == 0) {
              ++k;
              break;
            }
          }
        }
        // Optional specifiers (mutable, noexcept, -> Ret) up to the body.
        while (k < def.body_end && code[k] != '{' && code[k] != ';' &&
               code[k] != ')' && code[k] != ',' && code[k] != '}') {
          ++k;
        }
        if (k < def.body_end && code[k] == '{') {
          int bd = 0;
          std::size_t b = k;
          for (; b < def.body_end; ++b) {
            if (code[b] == '{') ++bd;
            if (code[b] == '}' && --bd == 0) break;
          }
          if (b < def.body_end) {
            i = b;
            continue;
          }
        }
      }
      continue;
    }
    if (c == '{') {
      ++depth;
      continue;
    }
    if (c == '}') {
      --depth;
      while (!active.empty() && active.back().depth > depth)
        active.pop_back();
      continue;
    }
    if (!ident_char(c) || (i > 0 && ident_char(code[i - 1]))) continue;
    std::size_t e = i;
    while (e < def.body_end && ident_char(code[e])) ++e;
    const std::string tok = code.substr(i, e - i);
    const std::size_t line = line_of(s, i);

    if (guard_type(tok)) {
      // [<...>] name ( args ) ;
      std::size_t j = skip_ws(code, e);
      if (j < code.size() && code[j] == '<') {
        int d = 0;
        for (; j < code.size(); ++j) {
          if (code[j] == '<') ++d;
          if (code[j] == '>' && --d == 0) break;
        }
        j = skip_ws(code, j + 1);
      }
      std::size_t ve = j;
      while (ve < code.size() && ident_char(code[ve])) ++ve;
      const std::string var = code.substr(j, ve - j);
      std::size_t p = skip_ws(code, ve);
      if (var.empty() || p >= code.size() ||
          (code[p] != '(' && code[p] != '{')) {
        // `std::unique_lock<std::mutex> lk;` or a bare type mention —
        // not an acquisition.
        i = e - 1;
        continue;
      }
      const char open = code[p];
      const char close = open == '(' ? ')' : '}';
      int d = 0;
      std::size_t q = p;
      for (; q < code.size(); ++q) {
        if (code[q] == open) ++d;
        if (code[q] == close && --d == 0) break;
      }
      const std::string args = code.substr(p + 1, q - p - 1);
      const std::vector<std::string> parts = split_args(args);
      const bool deferred = std::any_of(
          parts.begin(), parts.end(), [](const std::string& a) {
            return a.find("defer_lock") != std::string::npos ||
                   a.find("adopt_lock") != std::string::npos ||
                   a.find("try_to_lock") != std::string::npos;
          });
      if (!parts.empty() && !deferred) {
        const std::size_t n =
            tok == "scoped_lock" ? parts.size() : std::size_t{1};
        for (std::size_t a = 0; a < n && a < parts.size(); ++a) {
          const std::string name = mutex_token(parts[a]);
          if (!name.empty()) acquire(qual + ":" + name, var, line);
        }
      } else if (!var.empty()) {
        active.push_back({var, "", depth});  // deferred: tracked, unheld
      }
      i = q;  // past the closing delimiter
      continue;
    }

    // guard.unlock() / guard.lock() on a tracked guard.
    std::size_t j = skip_ws(code, e);
    if (j + 1 < code.size() && code[j] == '.' ) {
      std::size_t me = skip_ws(code, j + 1);
      std::size_t mend = me;
      while (mend < code.size() && ident_char(code[mend])) ++mend;
      const std::string method = code.substr(me, mend - me);
      if (method == "unlock") {
        for (auto it = active.rbegin(); it != active.rend(); ++it) {
          if (it->var == tok) {
            it->mutex.clear();
            break;
          }
        }
        i = e - 1;
        continue;
      }
    }

    // Call to a function defined in this file — resolved against the
    // callee's acquisition set in a second pass. A member or qualified
    // call (`map_.find(...)`, `std::size(...)`) targets another object's
    // or namespace's function, not the same-file definition that happens
    // to share the name.
    std::size_t back = i;
    while (back > 0 && (code[back - 1] == ' ' || code[back - 1] == '\n' ||
                        code[back - 1] == '\t')) {
      --back;
    }
    const bool qualified =
        back > 0 && (code[back - 1] == '.' || code[back - 1] == ':' ||
                     (back > 1 && code[back - 2] == '-' &&
                      code[back - 1] == '>'));
    if (!qualified && j < code.size() && code[j] == '(' &&
        local_fns.count(tok) != 0 && i != def.sig_begin) {
      CallSite site;
      site.callee = tok;
      site.line = line;
      for (const Guard& g : active) {
        if (!g.mutex.empty()) site.held.push_back(g.mutex);
      }
      if (!site.held.empty()) fl.calls.push_back(std::move(site));
    }
    i = e - 1;
  }
}

void check_cv_waits(const SourceFile& file, std::vector<Finding>& out) {
  const Scrubbed& s = file.scrubbed;
  const std::string& code = s.code;
  for (std::size_t i = 0; i + 5 < code.size(); ++i) {
    if (code[i] != '.') continue;
    std::size_t e = i + 1;
    while (e < code.size() && ident_char(code[e])) ++e;
    const std::string method = code.substr(i + 1, e - i - 1);
    std::size_t min_args = 0;
    if (method == "wait") {
      min_args = 2;  // (lock, predicate)
    } else if (method == "wait_for" || method == "wait_until") {
      min_args = 3;  // (lock, time, predicate)
    } else {
      continue;
    }
    const std::size_t p = skip_ws(code, e);
    if (p >= code.size() || code[p] != '(') continue;
    // Receiver: the identifier before the '.', possibly behind -> or '.'.
    std::size_t r = i;
    while (r > 0 && ident_char(code[r - 1])) --r;
    std::string receiver = code.substr(r, i - r);
    std::transform(receiver.begin(), receiver.end(), receiver.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (receiver.find("cv") == std::string::npos &&
        receiver.find("cond") == std::string::npos) {
      continue;
    }
    int d = 0;
    std::size_t q = p;
    for (; q < code.size(); ++q) {
      if (code[q] == '(') ++d;
      if (code[q] == ')' && --d == 0) break;
    }
    const std::vector<std::string> args =
        split_args(code.substr(p + 1, q - p - 1));
    if (args.size() >= min_args) continue;
    std::string message = "`" + receiver;
    message += "." + method;
    message +=
        "` without a predicate — a spurious wakeup or a missed notify "
        "leaves the waiter blocked on a stale condition";
    std::string fixit = "use the predicate overload: `" + receiver;
    fixit += "." + method;
    fixit += "(lock";
    fixit += min_args == 3 ? ", timeout" : "";
    fixit += ", [&] { return <condition>; })`";
    out.push_back({file.path, line_of(s, i), "cv-wait", std::move(message),
                   std::move(fixit)});
  }
}

void check_edge_cycles(LockWorld& world) {
  std::map<std::string, int> color;
  std::vector<std::string> stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& v) {
    color[v] = 1;
    stack.push_back(v);
    auto it = world.edges.find(v);
    if (it != world.edges.end()) {
      for (const auto& [next, edge] : it->second) {
        if (color[next] == 2) continue;
        if (color[next] == 1) {
          auto begin = std::find(stack.begin(), stack.end(), next);
          std::vector<std::string> cycle(begin, stack.end());
          auto smallest = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), smallest, cycle.end());
          std::string chain;
          std::string witnesses;
          for (std::size_t k = 0; k < cycle.size(); ++k) {
            const std::string& from = cycle[k];
            const std::string& to = cycle[(k + 1) % cycle.size()];
            chain += from + " -> ";
            const Edge& w = world.edges[from][to];
            if (!witnesses.empty()) witnesses += "; ";
            witnesses += from + "->" + to + " at " + w.witness;
          }
          chain += cycle.front();
          if (reported.insert(chain).second) {
            // Anchor at the first witness of the cycle's lead edge.
            const Edge& lead =
                world.edges[cycle.front()][cycle[1 % cycle.size()]];
            std::string path = lead.witness;
            std::size_t line = 1;
            const std::size_t colon = path.find(':');
            if (colon != std::string::npos) {
              line = static_cast<std::size_t>(
                  std::stoul(path.substr(colon + 1)));
              path.resize(colon);
            }
            world.findings.push_back(
                {path, line, "lock-order",
                 "lock ordering cycle: " + chain + " (" + witnesses + ")",
                 "pick one global order for these mutexes and acquire "
                 "them in it everywhere"});
          }
          continue;
        }
        dfs(next);
      }
    }
    stack.pop_back();
    color[v] = 2;
  };
  std::vector<std::string> nodes;
  for (const auto& [from, tos] : world.edges) {
    nodes.push_back(from);
    for (const auto& [to, e] : tos) {
      (void)e;
      nodes.push_back(to);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (const std::string& n : nodes) {
    if (color[n] == 0) dfs(n);
  }
}

}  // namespace

std::vector<Finding> check_locks(const std::vector<SourceFile>& files) {
  LockWorld world;
  std::map<const SourceFile*, std::vector<FuncLocks>> per_file;
  for (const SourceFile& f : files) {
    std::set<std::string> local_fns;
    for (const FuncDef& d : f.defs) local_fns.insert(d.name);
    auto& fns = per_file[&f];
    for (const FuncDef& d : f.defs) {
      FuncLocks fl;
      fl.file = &f;
      fl.def = &d;
      scan_function(f, d, local_fns, world, fl);
      fns.push_back(std::move(fl));
    }
    check_cv_waits(f, world.findings);
  }

  // Second pass: calls made while holding M, into a same-file function
  // that acquires M directly, deadlock; other callee acquisitions extend
  // the ordering graph through the call edge.
  for (const auto& [file, fns] : per_file) {
    std::map<std::string, std::set<std::string>> acquires_by_name;
    for (const FuncLocks& fl : fns) {
      acquires_by_name[fl.def->name].insert(fl.acquires.begin(),
                                            fl.acquires.end());
    }
    for (const FuncLocks& fl : fns) {
      for (const CallSite& call : fl.calls) {
        const auto it = acquires_by_name.find(call.callee);
        if (it == acquires_by_name.end()) continue;
        for (const std::string& held : call.held) {
          for (const std::string& taken : it->second) {
            if (taken == held) {
              std::string message = "`" + call.callee;
              message += "()` acquires `";
              message += mutex_token(held);
              message +=
                  "` which is already held at this call site — deadlock "
                  "through the call edge";
              std::string fixit =
                  "drop the guard before the call or add an unlocked "
                  "variant of `" +
                  call.callee;
              fixit += "`";
              world.findings.push_back({file->path, call.line, "lock-order",
                                        std::move(message),
                                        std::move(fixit)});
            } else {
              auto& e = world.edges[held];
              if (e.find(taken) == e.end()) {
                e[taken] = {file->path + ":" + std::to_string(call.line) +
                            " (" + fl.def->name + " -> " + call.callee +
                            ")"};
              }
            }
          }
        }
      }
    }
  }

  check_edge_cycles(world);
  std::stable_sort(world.findings.begin(), world.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.path, a.line, a.message) <
                            std::tie(b.path, b.line, b.message);
                   });
  // Two call sites reaching the same callee under the same guard say the
  // same thing once.
  world.findings.erase(
      std::unique(world.findings.begin(), world.findings.end(),
                  [](const Finding& a, const Finding& b) {
                    return a.path == b.path && a.line == b.line &&
                           a.message == b.message;
                  }),
      world.findings.end());
  return world.findings;
}

}  // namespace ddtr::lint
