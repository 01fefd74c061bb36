// The four ldlb_analyze passes over the whole-program symbol index, plus
// the shared suppression/stale bookkeeping, JSON rendering, and the
// layers.txt parser. Pass semantics and the resolver's documented
// approximations: docs/STATIC_ANALYSIS.md, "Cross-TU analysis".

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "analyze_core.hpp"
#include "model.hpp"

namespace ldlb::analyze {

namespace {

// --- layering ------------------------------------------------------------

void run_layering(const SourceModel& model,
                  const std::vector<std::vector<std::string>>& layers,
                  std::vector<Diagnostic>& out) {
  std::unordered_map<std::string, int> layer_of;
  for (int i = 0; i < static_cast<int>(layers.size()); ++i) {
    for (const std::string& module : layers[static_cast<std::size_t>(i)]) {
      layer_of[module] = i;
    }
  }
  std::unordered_map<std::string, int> file_index;
  for (int f = 0; f < static_cast<int>(model.files.size()); ++f) {
    file_index[model.files[static_cast<std::size_t>(f)].path] = f;
  }

  std::set<std::string> undeclared_reported;
  for (const FileModel& file : model.files) {
    const auto src_it = layer_of.find(file.module);
    if (src_it == layer_of.end()) {
      if (undeclared_reported.insert(file.module).second) {
        out.push_back({file.path, 1, "layering",
                       "module '" + file.module +
                           "' is not declared in layers.txt; add it to a "
                           "layer before depending on or from it"});
      }
      continue;
    }
    for (const IncludeEdge& edge : file.includes) {
      const auto tgt_file = file_index.find(edge.target);
      if (tgt_file == file_index.end()) continue;  // out-of-tree include
      const FileModel& target =
          model.files[static_cast<std::size_t>(tgt_file->second)];
      const auto tgt_it = layer_of.find(target.module);
      if (tgt_it == layer_of.end()) continue;  // reported above, once
      if (tgt_it->second > src_it->second) {
        out.push_back(
            {file.path, edge.line, "layering",
             "include of '" + edge.target + "' reaches up the layer order: '" +
                 file.module + "' (layer " + std::to_string(src_it->second) +
                 ") may not depend on '" + target.module + "' (layer " +
                 std::to_string(tgt_it->second) + ")"});
      }
    }
  }

  // File-level include cycles, regardless of layers. Iterative DFS with a
  // grey stack; each distinct cycle is reported once, anchored at its
  // lexically smallest member.
  std::unordered_map<std::string, int> colour;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::vector<std::string>> seen_cycles;

  std::function<void(const std::string&)> dfs = [&](const std::string& path) {
    colour[path] = 1;
    stack.push_back(path);
    const FileModel& file =
        model.files[static_cast<std::size_t>(file_index.at(path))];
    for (const IncludeEdge& edge : file.includes) {
      if (file_index.find(edge.target) == file_index.end()) continue;
      const int c = colour[edge.target];
      if (c == 0) {
        dfs(edge.target);
      } else if (c == 1) {
        const auto from =
            std::find(stack.begin(), stack.end(), edge.target);
        std::vector<std::string> cycle(from, stack.end());
        std::vector<std::string> key = cycle;
        std::sort(key.begin(), key.end());
        if (!seen_cycles.insert(key).second) continue;
        const std::string& anchor =
            *std::min_element(cycle.begin(), cycle.end());
        std::string chain;
        // Rotate so the chain starts at the anchor, then close the loop.
        const auto pivot = std::find(cycle.begin(), cycle.end(), anchor);
        std::rotate(cycle.begin(), pivot, cycle.end());
        for (const std::string& p : cycle) chain += p + " -> ";
        chain += cycle.front();
        // Anchor line: the anchor's include of the next file in the cycle.
        int line = 1;
        const std::string& next =
            cycle.size() > 1 ? cycle[1] : cycle.front();
        const FileModel& anchor_file =
            model.files[static_cast<std::size_t>(file_index.at(anchor))];
        for (const IncludeEdge& e : anchor_file.includes) {
          if (e.target == next) {
            line = e.line;
            break;
          }
        }
        out.push_back({anchor, line, "layering",
                       "include cycle: " + chain});
      }
    }
    stack.pop_back();
    colour[path] = 2;
  };
  for (const FileModel& file : model.files) {
    if (colour[file.path] == 0) dfs(file.path);
  }
}

// --- determinism ---------------------------------------------------------

const std::vector<std::string>& entry_prefixes() {
  static const std::vector<std::string> kPrefixes = {
      "run_adversary",    "plan_adversary_step", "combine_adversary_step",
      "validate_",        "serialize_",          "deserialize_",
      "write_certificate", "read_certificate"};
  return kPrefixes;
}

bool is_entry_point(const std::string& name) {
  for (const std::string& p : entry_prefixes()) {
    if (name.rfind(p, 0) == 0) return true;
  }
  return false;
}

void run_determinism(const SourceModel& model, std::vector<Diagnostic>& out) {
  // Flatten (file, fn) to a global id.
  std::vector<std::pair<int, int>> fns;
  std::map<std::pair<int, int>, int> gid_of;
  for (int f = 0; f < static_cast<int>(model.files.size()); ++f) {
    const FileModel& file = model.files[static_cast<std::size_t>(f)];
    for (int i = 0; i < static_cast<int>(file.functions.size()); ++i) {
      gid_of[{f, i}] = static_cast<int>(fns.size());
      fns.push_back({f, i});
    }
  }
  const auto fn_at = [&](int gid) -> const Function& {
    const auto [f, i] = fns[static_cast<std::size_t>(gid)];
    return model.files[static_cast<std::size_t>(f)]
        .functions[static_cast<std::size_t>(i)];
  };
  const auto file_at = [&](int gid) -> const FileModel& {
    return model.files[static_cast<std::size_t>(
        fns[static_cast<std::size_t>(gid)].first)];
  };

  // Multi-source BFS from every entry point, with parent pointers so the
  // diagnostic can print the concrete call chain. Entry points are seeded
  // in (file, function) order, so the chain chosen for a shared callee is
  // deterministic.
  std::vector<int> parent(fns.size(), -1);
  std::vector<int> state(fns.size(), 0);  // 0 unvisited, 1 reached
  std::deque<int> queue;
  for (int gid = 0; gid < static_cast<int>(fns.size()); ++gid) {
    if (is_entry_point(fn_at(gid).name)) {
      state[static_cast<std::size_t>(gid)] = 1;
      queue.push_back(gid);
    }
  }
  while (!queue.empty()) {
    const int gid = queue.front();
    queue.pop_front();
    for (const CallSite& call : fn_at(gid).calls) {
      const auto targets = model.by_name.find(call.name);
      if (targets == model.by_name.end()) continue;
      for (const auto& [tf, ti] : targets->second) {
        const int tgid = gid_of.at({tf, ti});
        if (state[static_cast<std::size_t>(tgid)] != 0) continue;
        state[static_cast<std::size_t>(tgid)] = 1;
        parent[static_cast<std::size_t>(tgid)] = gid;
        queue.push_back(tgid);
      }
    }
  }

  for (int gid = 0; gid < static_cast<int>(fns.size()); ++gid) {
    if (state[static_cast<std::size_t>(gid)] == 0) continue;
    const Function& fn = fn_at(gid);
    if (fn.sources.empty()) continue;
    // Reconstruct entry -> ... -> fn once per function.
    std::vector<int> chain;
    for (int at = gid; at != -1; at = parent[static_cast<std::size_t>(at)]) {
      chain.push_back(at);
    }
    std::reverse(chain.begin(), chain.end());
    std::string via;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      if (k > 0) via += " -> ";
      via += fn_at(chain[k]).qualified;
    }
    const std::string entry_name = fn_at(chain.front()).qualified;
    for (const SourceSite& site : fn.sources) {
      std::string message =
          "nondeterminism (" + site.category + "): '" + site.token +
          "' is reachable from certificate entry point '" + entry_name + "'";
      message += chain.size() == 1 ? " (inside the entry point itself)"
                                   : " via " + via;
      out.push_back({file_at(gid).path, site.line, "determinism", message});
    }
  }
}

// --- locks ---------------------------------------------------------------

// Sibling file that shares declarations with `path`: the matching .cpp for
// a .hpp and vice versa, so a field annotated in a header is checked in
// the source file that implements the class.
std::string sibling_path(const std::string& path) {
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos) return {};
  const std::string ext = path.substr(dot);
  if (ext == ".hpp") return path.substr(0, dot) + ".cpp";
  if (ext == ".cpp") return path.substr(0, dot) + ".hpp";
  return {};
}

void run_locks(const SourceModel& model, std::vector<Diagnostic>& out) {
  std::unordered_map<std::string, int> file_index;
  for (int f = 0; f < static_cast<int>(model.files.size()); ++f) {
    file_index[model.files[static_cast<std::size_t>(f)].path] = f;
  }

  for (const FileModel& file : model.files) {
    for (const GuardedField& gf : file.guarded_fields) {
      std::vector<const FileModel*> scan{&file};
      const std::string sib = sibling_path(file.path);
      if (const auto it = file_index.find(sib); it != file_index.end()) {
        scan.push_back(&model.files[static_cast<std::size_t>(it->second)]);
      }
      const std::regex access(R"(\b)" + gf.field + R"(\b)");
      for (const FileModel* fm : scan) {
        for (const Function& fn : fm->functions) {
          const std::string body = fm->stripped.text.substr(
              fn.body_begin, fn.body_end - fn.body_begin);
          for (std::sregex_iterator it(body.begin(), body.end(), access),
               end_it;
               it != end_it; ++it) {
            const std::size_t pos =
                fn.body_begin + static_cast<std::size_t>(it->position());
            const int line = line_at(fm->stripped.text, pos);
            if (fm == &file && line == gf.line) continue;  // the decl itself
            bool held = false;
            for (const LockSite& lock : fn.locks) {
              if (lock.mutex == gf.mutex && lock.pos < pos &&
                  pos < lock.scope_end) {
                held = true;
                break;
              }
            }
            if (!held) {
              out.push_back({fm->path, line, "locks",
                             "field '" + gf.field + "' (guarded by '" +
                                 gf.mutex + "') accessed in '" + fn.qualified +
                                 "' without holding '" + gf.mutex + "'"});
            }
          }
        }
      }
    }
  }

  // Lock-order pass: an acquisition of B lexically inside the scope of A
  // records the ordered pair (A, B); observing both (A, B) and (B, A)
  // anywhere in the tree is an inversion. Lock identity is (file, name),
  // so a `mutex_` member in two unrelated classes does not alias.
  struct PairSite {
    std::string path;
    int line = 0;
  };
  std::map<std::pair<std::string, std::string>, PairSite> pairs;
  for (const FileModel& file : model.files) {
    for (const Function& fn : file.functions) {
      for (const LockSite& outer : fn.locks) {
        for (const LockSite& inner : fn.locks) {
          if (outer.mutex == inner.mutex) continue;
          if (!(outer.pos < inner.pos && inner.pos < outer.scope_end)) {
            continue;
          }
          const std::pair<std::string, std::string> key = {
              file.path + "#" + outer.mutex, file.path + "#" + inner.mutex};
          if (pairs.find(key) == pairs.end()) {
            pairs[key] = {file.path, inner.line};
          }
        }
      }
    }
  }
  for (const auto& [key, site] : pairs) {
    const auto inverse = pairs.find({key.second, key.first});
    if (inverse == pairs.end()) continue;
    const std::string outer = key.first.substr(key.first.find('#') + 1);
    const std::string inner = key.second.substr(key.second.find('#') + 1);
    out.push_back({site.path, site.line, "locks",
                   "lock-order inversion: '" + inner +
                       "' acquired while holding '" + outer +
                       "', but the opposite order occurs at " +
                       inverse->second.path + ":" +
                       std::to_string(inverse->second.line)});
  }
}

// --- cancellation --------------------------------------------------------

bool cancellation_scoped(const FileModel& file) {
  return file.module == "core" ||
         file.path.find("local/simulator") != std::string::npos;
}

const std::regex& poll_pattern() {
  static const std::regex kPoll(
      R"(\w*(?:[Cc]ancel|[Pp]oll|[Dd]eadline|[Ee]xpired)\w*)");
  return kPoll;
}

void run_cancellation(const SourceModel& model, std::vector<Diagnostic>& out) {
  // reaches_poll fixpoint: a function polls directly when its body contains
  // a cancel/poll/deadline/expired identifier, or transitively when any
  // callee (resolved by name) polls. Reverse-edge BFS from the direct set.
  std::vector<std::pair<int, int>> fns;
  std::map<std::pair<int, int>, int> gid_of;
  for (int f = 0; f < static_cast<int>(model.files.size()); ++f) {
    const FileModel& file = model.files[static_cast<std::size_t>(f)];
    for (int i = 0; i < static_cast<int>(file.functions.size()); ++i) {
      gid_of[{f, i}] = static_cast<int>(fns.size());
      fns.push_back({f, i});
    }
  }
  const auto fn_at = [&](int gid) -> const Function& {
    const auto [f, i] = fns[static_cast<std::size_t>(gid)];
    return model.files[static_cast<std::size_t>(f)]
        .functions[static_cast<std::size_t>(i)];
  };

  std::vector<std::vector<int>> callers(fns.size());
  std::vector<char> reaches(fns.size(), 0);
  std::deque<int> queue;
  for (int gid = 0; gid < static_cast<int>(fns.size()); ++gid) {
    const auto [f, i] = fns[static_cast<std::size_t>(gid)];
    const FileModel& file = model.files[static_cast<std::size_t>(f)];
    const Function& fn = fn_at(gid);
    const std::string body =
        file.stripped.text.substr(fn.body_begin, fn.body_end - fn.body_begin);
    if (std::regex_search(body, poll_pattern())) {
      reaches[static_cast<std::size_t>(gid)] = 1;
      queue.push_back(gid);
    }
    for (const CallSite& call : fn.calls) {
      const auto targets = model.by_name.find(call.name);
      if (targets == model.by_name.end()) continue;
      for (const auto& [tf, ti] : targets->second) {
        callers[static_cast<std::size_t>(gid_of.at({tf, ti}))].push_back(gid);
      }
    }
  }
  while (!queue.empty()) {
    const int gid = queue.front();
    queue.pop_front();
    for (const int caller : callers[static_cast<std::size_t>(gid)]) {
      if (reaches[static_cast<std::size_t>(caller)] != 0) continue;
      reaches[static_cast<std::size_t>(caller)] = 1;
      queue.push_back(caller);
    }
  }

  for (const FileModel& file : model.files) {
    if (!cancellation_scoped(file)) continue;
    for (const Function& fn : file.functions) {
      for (const LoopSite& loop : fn.loops) {
        const std::string span = file.stripped.text.substr(
            loop.span_begin, loop.span_end - loop.span_begin);
        if (std::regex_search(span, poll_pattern())) continue;
        bool ok = false;
        for (const CallSite& call : fn.calls) {
          if (call.pos < loop.span_begin || call.pos >= loop.span_end) {
            continue;
          }
          const auto targets = model.by_name.find(call.name);
          if (targets == model.by_name.end()) continue;
          for (const auto& [tf, ti] : targets->second) {
            if (reaches[static_cast<std::size_t>(gid_of.at({tf, ti}))] != 0) {
              ok = true;
              break;
            }
          }
          if (ok) break;
        }
        if (!ok) {
          out.push_back(
              {file.path, loop.line, "cancellation",
               "unbounded '" + loop.keyword + "' loop in '" + fn.qualified +
                   "' cannot reach a cancellation/poll/deadline check; poll "
                   "inside the loop or annotate why it terminates"});
        }
      }
    }
  }
}

// --- suppression & output ------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& pass_names() {
  static const std::vector<std::string> kNames = {"layering", "determinism",
                                                  "locks", "cancellation"};
  return kNames;
}

std::vector<std::vector<std::string>> parse_layers(const std::string& source) {
  std::vector<std::vector<std::string>> layers;
  std::istringstream lines(source);
  std::string line;
  while (std::getline(lines, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream words(line);
    std::vector<std::string> layer;
    std::string word;
    while (words >> word) layer.push_back(word);
    if (!layer.empty()) layers.push_back(std::move(layer));
  }
  return layers;
}

std::vector<Diagnostic> analyze_tree(const Options& options) {
  const std::filesystem::path layers_path =
      options.layers_file.empty()
          ? options.root / "tools" / "analyze" / "layers.txt"
          : options.layers_file;
  const std::vector<std::vector<std::string>> layers =
      parse_layers(srcmodel::read_file(layers_path));

  SourceModel model =
      build_model(options.root, srcmodel::list_ldlb_sources(options.root));

  std::vector<Diagnostic> raw;
  run_layering(model, layers, raw);
  run_determinism(model, raw);
  run_locks(model, raw);
  run_cancellation(model, raw);

  // Suppression: an `ldlb-analyze: allow(<pass>)` annotation swallows
  // every same-pass diagnostic anchored on its target line; annotations
  // that swallow nothing become stale-suppression diagnostics, and the
  // annotation-parser meta-diagnostics are never suppressible.
  std::unordered_map<std::string, FileModel*> by_path;
  for (FileModel& file : model.files) by_path[file.path] = &file;

  std::vector<Diagnostic> diagnostics;
  for (Diagnostic& d : raw) {
    bool suppressed = false;
    if (const auto it = by_path.find(d.path); it != by_path.end()) {
      for (srcmodel::Annotation& a : it->second->annotations) {
        if (a.rule == d.rule && a.target_line == d.line) {
          a.used = true;
          suppressed = true;
        }
      }
    }
    if (!suppressed) diagnostics.push_back(std::move(d));
  }
  for (const FileModel& file : model.files) {
    for (const srcmodel::Annotation& a : file.annotations) {
      if (a.used) continue;
      diagnostics.push_back(
          {file.path, a.line, "stale-suppression",
           a.target_line == 0
               ? "allow(" + a.rule + ") has no following code line to suppress"
               : "allow(" + a.rule + ") suppresses nothing on line " +
                     std::to_string(a.target_line) +
                     "; remove the stale annotation"});
    }
  }
  for (const Diagnostic& d : model.meta) diagnostics.push_back(d);

  if (!options.only.empty()) {
    const std::set<std::string> keep(options.only.begin(), options.only.end());
    std::erase_if(diagnostics, [&keep](const Diagnostic& d) {
      return keep.find(d.path) == keep.end();
    });
  }

  std::sort(diagnostics.begin(), diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.path, a.line, a.rule, a.message) <
                     std::tie(b.path, b.line, b.rule, b.message);
            });
  diagnostics.erase(std::unique(diagnostics.begin(), diagnostics.end(),
                                [](const Diagnostic& a, const Diagnostic& b) {
                                  return a.path == b.path && a.line == b.line &&
                                         a.rule == b.rule &&
                                         a.message == b.message;
                                }),
                    diagnostics.end());
  return diagnostics;
}

std::string to_json(const std::vector<Diagnostic>& diagnostics) {
  std::string out = "[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out += ",";
    out += "\n  {\"path\": \"" + json_escape(d.path) +
           "\", \"line\": " + std::to_string(d.line) + ", \"pass\": \"" +
           json_escape(d.rule) + "\", \"message\": \"" +
           json_escape(d.message) + "\"}";
  }
  out += diagnostics.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace ldlb::analyze
