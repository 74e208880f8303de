#include "ohpx/sync/lock_order.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <utility>

#include "ohpx/common/annotations.hpp"
#include "ohpx/sync/mutex.hpp"

namespace ohpx::sync::lock_order {

/// A lock class: one interned node per mutex name, never freed.
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

namespace {

/// First observation of a holder -> acquired ordering.
struct Edge {
  Site holder_site;   ///< where the held mutex was locked
  Site acquire_site;  ///< where the second mutex was locked under it
};

// The registry's own lock is the *unchecked* annotated flavor: it is a
// leaf (never held while acquiring a user mutex), so feeding it back into
// the validator would only recurse.
struct Registry {
  BasicMutex<false> mutex{"sync.lock_order.registry"};
  std::map<std::string, std::unique_ptr<Node>, std::less<>> nodes
      OHPX_GUARDED_BY(mutex);
  std::map<Node*, std::map<Node*, Edge>> edges OHPX_GUARDED_BY(mutex);
  std::vector<InversionReport> reports OHPX_GUARDED_BY(mutex);
  std::set<std::string> seen_cycles OHPX_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry instance;
  return instance;
}

struct Held {
  Node* node;
  Site site;
};

/// Raised when the calling thread's held-lock stack has been destroyed.
/// The main thread's thread_locals die (__call_tls_dtors) before static
/// destructors run, and those still lock validated mutexes
/// (ThreadPool::shutdown, Reactor::stop): from then on the thread's
/// acquisitions go untracked instead of touching the freed stack.
/// constinit, so reading it never runs a TLS initialiser.
constinit thread_local bool t_held_gone = false;

/// The calling thread's stack of currently held checked mutexes.
struct HeldStack : std::vector<Held> {
  ~HeldStack() { t_held_gone = true; }
};
thread_local HeldStack t_held;

std::string render_site(Site site) {
  std::string text = site.file != nullptr ? site.file : "";
  text += ':';
  text += std::to_string(site.line);
  return text;
}

/// DFS for a path `from` -> ... -> `target` over recorded edges, visiting
/// successors in name order so the reported path is deterministic.  On
/// success `path` is filled target-first (unwind order).
bool find_path_locked(Registry& reg, Node* from, Node* target,
                      std::set<Node*>& visited, std::vector<Node*>& path)
    OHPX_REQUIRES(reg.mutex) {
  if (from == target) {
    path.push_back(from);
    return true;
  }
  if (!visited.insert(from).second) return false;
  const auto adjacency = reg.edges.find(from);
  if (adjacency == reg.edges.end()) return false;
  std::vector<Node*> successors;
  successors.reserve(adjacency->second.size());
  for (const auto& entry : adjacency->second) {
    successors.push_back(entry.first);
  }
  std::sort(successors.begin(), successors.end(),
            [](const Node* a, const Node* b) { return a->name() < b->name(); });
  for (Node* next : successors) {
    if (find_path_locked(reg, next, target, visited, path)) {
      path.push_back(from);
      return true;
    }
  }
  return false;
}

/// Called right after inserting the edge `holder` -> `acquired`.  If the
/// graph now contains a path acquired -> ... -> holder, that edge closed a
/// cycle: build the deduplicated, deterministic report.
void check_cycle_locked(Registry& reg, Node* holder, Node* acquired,
                        Site holder_site, Site acquire_site)
    OHPX_REQUIRES(reg.mutex) {
  std::set<Node*> visited;
  std::vector<Node*> unwind;  // filled [holder, ..., acquired]
  if (!find_path_locked(reg, acquired, holder, visited, unwind)) {
    return;
  }
  // Acquisition-order participants, starting at the holder and following
  // the new edge: holder -> acquired -> ... -> (back to holder).
  std::vector<Node*> participants(unwind.rbegin(), unwind.rend());
  std::rotate(participants.begin(), participants.end() - 1,
              participants.end());

  // Canonical form for deduplication and the `cycle` field: rotate the
  // lexicographically smallest name to the front.
  std::vector<std::string> names;
  names.reserve(participants.size());
  for (const Node* node : participants) names.push_back(node->name());
  const auto smallest = std::min_element(names.begin(), names.end());
  std::rotate(names.begin(), names.begin() + (smallest - names.begin()),
              names.end());
  std::string key;
  for (const std::string& name : names) {
    key += name;
    key += "->";
  }
  if (!reg.seen_cycles.insert(key).second) return;  // already reported

  InversionReport report;
  report.cycle = names;
  std::string& text = report.description;
  text = "potential deadlock: lock-order cycle ";
  for (const std::string& name : names) {
    text += name;
    text += " -> ";
  }
  text += names.front();
  text += "\n  closing edge: \"";
  text += acquired->name();
  text += "\" acquired at ";
  text += render_site(acquire_site);
  text += " while \"";
  text += holder->name();
  text += "\" held (locked at ";
  text += render_site(holder_site);
  text += ")";
  // The rest of the cycle: every previously recorded edge on the path
  // acquired -> ... -> holder, each with the two sites that established
  // it — the "other stack" of the inversion.
  for (std::size_t i = 0; i + 1 < participants.size(); ++i) {
    Node* from = participants[i + 1];  // participants[1] == acquired
    Node* to = i + 2 < participants.size() ? participants[i + 2]
                                           : participants[0];
    const auto adjacency = reg.edges.find(from);
    if (adjacency == reg.edges.end()) continue;
    const auto edge = adjacency->second.find(to);
    if (edge == adjacency->second.end()) continue;
    text += "\n  established order: \"";
    text += to->name();
    text += "\" acquired at ";
    text += render_site(edge->second.acquire_site);
    text += " while \"";
    text += from->name();
    text += "\" held (locked at ";
    text += render_site(edge->second.holder_site);
    text += ")";
  }
  reg.reports.push_back(std::move(report));
}

void record_acquisition(Node* node, Site site) {
  if (t_held_gone) return;
  if (!t_held.empty()) {
    const Held& top = t_held.back();
    if (top.node != node) {
      Registry& reg = registry();
      LockGuard lock(reg.mutex);
      auto& slot = reg.edges[top.node];
      if (slot.find(node) == slot.end()) {
        slot.emplace(node, Edge{top.site, site});
        check_cycle_locked(reg, top.node, node, top.site, site);
      }
    }
  }
  t_held.push_back(Held{node, site});
}

}  // namespace

Node* register_mutex(const char* name) noexcept {
  Registry& reg = registry();
  const std::string_view key = name != nullptr ? name : "unnamed";
  LockGuard lock(reg.mutex);
  auto it = reg.nodes.find(key);
  if (it == reg.nodes.end()) {
    it = reg.nodes
             .emplace(std::string(key),
                      std::make_unique<Node>(std::string(key)))
             .first;
  }
  return it->second.get();
}

void on_acquire(Node* node, Site site) noexcept {
  if (node == nullptr) return;
  record_acquisition(node, site);
}

void on_try_acquire(Node* node, Site site) noexcept {
  if (node == nullptr) return;
  record_acquisition(node, site);
}

void on_release(Node* node) noexcept {
  if (node == nullptr || t_held_gone) return;
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->node == node) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

std::vector<InversionReport> take_reports() {
  Registry& reg = registry();
  std::vector<InversionReport> drained;
  {
    LockGuard lock(reg.mutex);
    drained.swap(reg.reports);
  }
  std::sort(drained.begin(), drained.end(),
            [](const InversionReport& a, const InversionReport& b) {
              if (a.cycle.size() != b.cycle.size()) {
                return a.cycle.size() < b.cycle.size();
              }
              return a.cycle < b.cycle;
            });
  return drained;
}

std::size_t report_count() noexcept {
  Registry& reg = registry();
  LockGuard lock(reg.mutex);
  return reg.reports.size();
}

void reset_for_testing() {
  Registry& reg = registry();
  LockGuard lock(reg.mutex);
  reg.edges.clear();
  reg.reports.clear();
  reg.seen_cycles.clear();
}

}  // namespace ohpx::sync::lock_order
