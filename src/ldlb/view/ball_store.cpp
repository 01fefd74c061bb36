#include "ldlb/view/ball_store.hpp"

#include <algorithm>
#include <cstdlib>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ldlb/util/alloc_guard.hpp"

namespace ldlb {

namespace {

// ---------------------------------------------------------------------------
// Interned signatures.
//
// A signature is one refinement step: the sorted loop colours of a node plus
// the sorted (edge colour, child signature) pairs of its neighbours one
// level down. Children are referenced by intern id (dense, assigned in
// interning order — a child is always interned before any parent that
// references it), while the *key* of a signature chains the children's
// 128-bit keys, so keys do not depend on table state and survive wholesale
// table resets.
// ---------------------------------------------------------------------------

struct KeyHash {
  std::size_t operator()(const Checksum128& k) const noexcept {
    return static_cast<std::size_t>(k.mix());
  }
};

struct MemoKey {
  std::uint64_t fingerprint;
  NodeId node;
  int radius;

  friend bool operator==(const MemoKey&, const MemoKey&) = default;
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& k) const noexcept {
    std::uint64_t h = k.fingerprint;
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.node)) *
         0x9e3779b97f4a7c15ULL;
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.radius)) *
         0xff51afd7ed558ccdULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

struct MemoEntry {
  Checksum128 key;
  std::list<MemoKey>::iterator lru_it;
};

// All engine state under one lock: the intern table, the (graph, node,
// radius) -> key front memo, the per-graph shape cache and the telemetry
// counters. Keys are content-derived, so whichever thread interns a
// signature first, every thread reads the same key — results are
// schedule-independent by construction.
//
// ldlb-lint: allow(raw-sync): the store lock only orders intern/memo
// bookkeeping; canonical keys are content-derived, so no returned value
// depends on scheduling.
std::mutex g_mutex;

// The intern table is stored SoA with payloads in two shared arenas: a miss
// appends to flat vectors instead of allocating per-signature, and a hit's
// structural compare reads one contiguous arena segment. The per-byte cost
// of the old node-per-Sig layout (two heap vectors plus an unordered_map
// node each) dominated the cold-encode profile at Δ=12.
std::vector<Checksum128> g_sig_keys;        // id -> content key
std::vector<std::uint32_t> g_loop_off{0};   // id -> arena begin; size ids + 1
std::vector<std::uint32_t> g_child_off{0};  // id -> arena begin; size ids + 1
std::vector<Color> g_loop_arena;         // sorted ascending per segment
std::vector<std::pair<Color, std::uint32_t>> g_child_arena;  // sorted by colour

[[nodiscard]] std::span<const Color> sig_loops(std::uint32_t id) {
  return {g_loop_arena.data() + g_loop_off[id],
          g_loop_arena.data() + g_loop_off[id + 1]};
}
[[nodiscard]] std::span<const std::pair<Color, std::uint32_t>> sig_children(
    std::uint32_t id) {
  return {g_child_arena.data() + g_child_off[id],
          g_child_arena.data() + g_child_off[id + 1]};
}

// Structure -> id lookup as an open-addressed, linear-probe table of intern
// ids: one predictable probe on the hot path instead of a bucket-node
// pointer chase. The probe hashes the *local* structure (loop colours plus
// (colour, child id) pairs packed one word each) with 64-bit FNV-1a —
// equality at a slot is decided by the full structural compare, so this
// hash only affects speed, and the ~3x-per-word costlier chained 128-bit
// content key is computed once per distinct signature, on insert. Rebuilt
// on growth and after wholesale resets; ids are never deleted individually.
constexpr std::uint32_t kEmptySlot = 0xffffffffu;
std::vector<std::uint32_t> g_slots;
std::size_t g_slot_mask = 0;

std::uint64_t probe_hash(
    std::span<const Color> loops,
    std::span<const std::pair<Color, std::uint32_t>> children) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(loops.size()) << 32 | children.size());
  for (Color c : loops) mix(static_cast<std::uint32_t>(c));
  for (const auto& [c, id] : children) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)) << 32 | id);
  }
  h ^= h >> 32;  // feed high bits back down: the FNV prime only carries up
  h *= 1099511628211ULL;
  return h;
}

void rebuild_slots(std::size_t want) {
  std::size_t cap = 1024;
  while (cap * 3 < want * 4) cap <<= 1;  // keep load factor under 3/4
  g_slots.assign(cap, kEmptySlot);
  g_slot_mask = cap - 1;
  for (std::uint32_t id = 0; id < g_sig_keys.size(); ++id) {
    std::size_t idx = probe_hash(sig_loops(id), sig_children(id)) & g_slot_mask;
    while (g_slots[idx] != kEmptySlot) idx = (idx + 1) & g_slot_mask;
    g_slots[idx] = id;
  }
}

// Content keys seen so far, id-resolving: only consulted on insert, to keep
// the 128-bit collision telemetry the hot path no longer produces as a
// side effect (hits are decided structurally).
std::unordered_map<Checksum128, std::uint32_t, KeyHash> g_by_key128;

std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> g_memo;
std::list<MemoKey> g_memo_lru;  // front = most recently used

// Shape gate per graph fingerprint: keys decide isomorphism only for
// properly coloured trees-with-loops, and the two predicates cost O(E) each.
std::unordered_map<std::uint64_t, bool> g_tree_ok;  // ldlb: guarded_by(g_mutex)

BallStoreStats g_stats;
std::size_t g_intern_bytes = 0;
std::size_t g_memo_bytes = 0;
std::size_t g_shape_bytes = 0;

// ldlb: guarded_by(g_mutex)
std::size_t g_budget = [] {
  if (const char* s = std::getenv("LDLB_BALL_CACHE_BYTES");
      s != nullptr && *s != '\0') {
    const long long v = std::atoll(s);
    if (v >= 0) return static_cast<std::size_t>(v);
  }
  return std::size_t{8} << 20;
}();

// Rough footprints. A signature costs its arena payload plus the fixed SoA
// row (key, two offsets, a slot) — far below the old node-per-Sig layout.
std::size_t sig_cost(std::size_t loops, std::size_t children) {
  return 32 + sizeof(Color) * loops +
         sizeof(std::pair<Color, std::uint32_t>) * children;
}
constexpr std::size_t kMemoEntryCost = 96;
constexpr std::size_t kTreeOkEntryCost = 48;

// Derives the content key of a signature from its children's *keys* (not
// their ids, which `keys` resolves): the leading length words make the
// encoding prefix-free.
Checksum128 sig_key(
    const std::vector<Checksum128>& keys, std::span<const Color> loops,
    std::span<const std::pair<Color, std::uint32_t>> children) {
  Checksum128 state = kFnv128OffsetBasis;
  state = fnv1a_128_absorb(
      static_cast<std::uint64_t>(loops.size()) << 32 | children.size(), state);
  for (Color c : loops) {
    state = fnv1a_128_absorb(static_cast<std::uint32_t>(c), state);
  }
  for (const auto& [c, id] : children) {
    const Checksum128& child = keys[id];
    state = fnv1a_128_absorb(static_cast<std::uint32_t>(c), state);
    state = fnv1a_128_absorb(child.hi, state);
    state = fnv1a_128_absorb(child.lo, state);
  }
  return state;
}

// Interns (loops, children), returning the dense id. Caller holds g_mutex;
// children must already be interned (their ids index the table). Takes spans
// and copies only on a miss: the hot path runs at a ~90% hit rate, so
// by-value parameters would spend most of the engine's time copying and
// freeing vectors whose contents are already in the table — and spans let
// canonical_ball_key keep its per-node data in flat CSR arrays.
std::uint32_t intern(
    std::span<const Color> loops,
    std::span<const std::pair<Color, std::uint32_t>> children) {
  ++g_stats.intern_lookups;
  if ((g_sig_keys.size() + 1) * 4 > g_slots.size() * 3) {
    rebuild_slots(g_sig_keys.size() + 1);  // also covers first use
  }
  std::size_t idx = probe_hash(loops, children) & g_slot_mask;
  for (; g_slots[idx] != kEmptySlot; idx = (idx + 1) & g_slot_mask) {
    const std::uint32_t id = g_slots[idx];
    if (std::ranges::equal(sig_loops(id), loops) &&
        std::ranges::equal(sig_children(id), children)) {
      ++g_stats.intern_hits;
      return id;
    }
  }
  const Checksum128 key = sig_key(g_sig_keys, loops, children);
  const std::size_t cost = sig_cost(loops.size(), children.size());
  // Observes the thread-local allocation budget of util/alloc_guard — the
  // intern table is an open-ended consumer of memory, so alloc-failure
  // injection must be able to hit it.
  charge_alloc(cost);
  const auto id = static_cast<std::uint32_t>(g_sig_keys.size());
  if (!g_by_key128.emplace(key, id).second) {
    // A structurally different signature (this probe missed) chained to the
    // same 128-bit content key. Soundness of every key compare rests on
    // this never happening; the cross-validation suite asserts the counter
    // is zero.
    ++g_stats.collisions;
  }
  g_sig_keys.push_back(key);
  g_loop_arena.insert(g_loop_arena.end(), loops.begin(), loops.end());
  g_loop_off.push_back(static_cast<std::uint32_t>(g_loop_arena.size()));
  g_child_arena.insert(g_child_arena.end(), children.begin(), children.end());
  g_child_off.push_back(static_cast<std::uint32_t>(g_child_arena.size()));
  g_slots[idx] = id;
  g_intern_bytes += cost;
  return id;
}

// Caller holds g_mutex.
void clear_intern_table() {
  g_sig_keys.clear();
  g_loop_off.assign(1, 0);
  g_child_off.assign(1, 0);
  g_loop_arena.clear();
  g_child_arena.clear();
  g_slots.clear();
  g_slot_mask = 0;
  g_by_key128.clear();
  g_intern_bytes = 0;
}

// Caller holds g_mutex.
void clear_memo() {
  g_memo.clear();
  g_memo_lru.clear();
  g_memo_bytes = 0;
}

// Brings the engine back under budget. Memoized keys evict LRU first; if
// the intern table alone still exceeds the budget it resets wholesale — a
// valid (if cold) state, because memoized and returned keys are
// content-derived and never reference intern ids. Caller holds g_mutex;
// must not run while intern ids are live in a caller's layer arrays.
void enforce_budget() {
  while (g_intern_bytes + g_memo_bytes + g_shape_bytes > g_budget &&  // ldlb-analyze: allow(locks): caller holds g_mutex
         !g_memo_lru.empty()) {
    auto it = g_memo.find(g_memo_lru.back());
    g_memo_bytes -= kMemoEntryCost;
    g_memo.erase(it);
    g_memo_lru.pop_back();
  }
  if (g_intern_bytes + g_shape_bytes > g_budget && !g_sig_keys.empty()) {  // ldlb-analyze: allow(locks): caller holds g_mutex
    clear_intern_table();
    ++g_stats.intern_resets;
  }
  if (g_shape_bytes > g_budget) {  // ldlb-analyze: allow(locks): caller holds g_mutex
    g_tree_ok.clear();  // ldlb-analyze: allow(locks): caller holds g_mutex
    g_shape_bytes = 0;
  }
}

// Shape gate, cached per graph fingerprint. Takes g_mutex internally.
bool tree_with_loops_ok(const Multigraph& g, std::uint64_t fp) {
  {
    std::lock_guard<std::mutex> lk(g_mutex);
    auto it = g_tree_ok.find(fp);
    if (it != g_tree_ok.end()) return it->second;
  }
  const bool ok =
      g.is_forest_ignoring_loops() && g.has_proper_edge_coloring();
  std::lock_guard<std::mutex> lk(g_mutex);
  g_tree_ok.emplace(fp, ok);
  g_shape_bytes += kTreeOkEntryCost;
  return ok;
}

}  // namespace

std::optional<Checksum128> canonical_ball_key(const Multigraph& g, NodeId v,
                                              int radius) {
  LDLB_REQUIRE(v >= 0 && v < g.node_count());
  LDLB_REQUIRE(radius >= 0);
  const std::uint64_t fp = g.fingerprint();
  const MemoKey memo_key{fp, v, radius};
  {
    std::lock_guard<std::mutex> lk(g_mutex);
    ++g_stats.key_queries;
    auto it = g_memo.find(memo_key);
    if (it != g_memo.end()) {
      ++g_stats.memo_hits;
      g_memo_lru.splice(g_memo_lru.begin(), g_memo_lru, it->second.lru_it);
      return it->second.key;
    }
  }
  if (!tree_with_loops_ok(g, fp)) return std::nullopt;

  // Bounded BFS to depth `radius`; ball nodes in BFS order, centre first.
  // Matches view/ball.cpp's convention: a node belongs to the ball iff its
  // distance is at most the radius (an edge iff min end distance + 1 fits,
  // which the refinement below respects by construction).
  std::vector<std::int32_t> dist(static_cast<std::size_t>(g.node_count()), -1);
  std::vector<std::int32_t> pos(static_cast<std::size_t>(g.node_count()), -1);
  std::vector<NodeId> nodes;
  dist[static_cast<std::size_t>(v)] = 0;
  nodes.push_back(v);
  for (std::size_t head = 0; head < nodes.size(); ++head) {
    const NodeId cur = nodes[head];
    const auto d = dist[static_cast<std::size_t>(cur)];
    if (d >= radius) continue;
    for (EdgeId e : g.incident_edges(cur)) {
      const NodeId next = g.other_endpoint(e, cur);
      auto& dn = dist[static_cast<std::size_t>(next)];
      if (dn < 0) {
        dn = d + 1;
        nodes.push_back(next);
      }
    }
  }
  const std::size_t ball_size = nodes.size();
  for (std::size_t i = 0; i < ball_size; ++i) {
    pos[static_cast<std::size_t>(nodes[i])] = static_cast<std::int32_t>(i);
  }

  // Per ball node: sorted loop colours, and (colour, peer position) pairs
  // sorted by colour — colours at a node are distinct under a proper
  // colouring, so the order is canonical. Interior nodes only: nodes at
  // distance exactly `radius` are leaves of every layer they appear in.
  //
  // Flat CSR layout (count, prefix-sum, fill) rather than a vector per
  // node: the refinement below touches every segment once per layer, and
  // per-node vectors made allocator traffic the hottest symbol in the
  // Δ=12 profile.
  std::vector<std::int32_t> loop_off(ball_size + 1, 0);
  std::vector<std::int32_t> nbr_off(ball_size + 1, 0);
  for (std::size_t i = 0; i < ball_size; ++i) {
    const NodeId u = nodes[i];
    const auto du = dist[static_cast<std::size_t>(u)];
    for (EdgeId e : g.incident_edges(u)) {
      if (g.edge(e).is_loop()) {
        ++loop_off[i + 1];
      } else if (du < radius) {
        ++nbr_off[i + 1];
      }
    }
  }
  for (std::size_t i = 0; i < ball_size; ++i) {
    loop_off[i + 1] += loop_off[i];
    nbr_off[i + 1] += nbr_off[i];
  }
  std::vector<Color> loops(static_cast<std::size_t>(loop_off[ball_size]));
  std::vector<std::pair<Color, std::int32_t>> nbrs(
      static_cast<std::size_t>(nbr_off[ball_size]));
  {
    std::vector<std::int32_t> loop_cur(loop_off.begin(), loop_off.end() - 1);
    std::vector<std::int32_t> nbr_cur(nbr_off.begin(), nbr_off.end() - 1);
    for (std::size_t i = 0; i < ball_size; ++i) {
      const NodeId u = nodes[i];
      const auto du = dist[static_cast<std::size_t>(u)];
      for (EdgeId e : g.incident_edges(u)) {
        const auto& ed = g.edge(e);
        if (ed.is_loop()) {
          loops[static_cast<std::size_t>(loop_cur[i]++)] = ed.color;
        } else if (du < radius) {
          nbrs[static_cast<std::size_t>(nbr_cur[i]++)] = {
              ed.color,
              pos[static_cast<std::size_t>(g.other_endpoint(e, u))]};
        }
      }
    }
  }
  for (std::size_t i = 0; i < ball_size; ++i) {
    std::sort(loops.begin() + loop_off[i], loops.begin() + loop_off[i + 1]);
    std::sort(nbrs.begin() + nbr_off[i], nbrs.begin() + nbr_off[i + 1]);
  }

  // Layered refinement: k_0 is the shared leaf signature; layer d interns
  // k_d(u) for every node still within radius - d, reading the previous
  // layer's ids. Ball layers shrink geometrically in the adversary graphs,
  // so the total work is a small constant times the ball's edge count.
  Checksum128 result;
  {
    std::lock_guard<std::mutex> lk(g_mutex);
    const std::uint32_t leaf = intern({}, {});
    std::vector<std::uint32_t> prev(ball_size, leaf);
    std::vector<std::uint32_t> cur(ball_size, leaf);
    std::vector<std::pair<Color, std::uint32_t>> children;
    for (int d = 1; d <= radius; ++d) {
      for (std::size_t i = 0; i < ball_size; ++i) {
        if (dist[static_cast<std::size_t>(nodes[i])] > radius - d) continue;
        children.clear();
        children.reserve(static_cast<std::size_t>(nbr_off[i + 1]) -
                         static_cast<std::size_t>(nbr_off[i]));
        for (std::int32_t j = nbr_off[i]; j < nbr_off[i + 1]; ++j) {
          const auto& [c, peer] = nbrs[static_cast<std::size_t>(j)];
          children.emplace_back(c, prev[static_cast<std::size_t>(peer)]);
        }
        cur[i] = intern(
            std::span<const Color>{
                loops.data() + loop_off[i],
                static_cast<std::size_t>(loop_off[i + 1] - loop_off[i])},
            children);
      }
      std::swap(prev, cur);
    }
    result = g_sig_keys[prev[0]];
    charge_alloc(kMemoEntryCost);
    auto [it, inserted] = g_memo.try_emplace(memo_key);
    if (inserted) {
      g_memo_lru.push_front(memo_key);
      it->second = {result, g_memo_lru.begin()};
      g_memo_bytes += kMemoEntryCost;
    }
    // Safe here: the layer arrays are dead, no intern ids are live outside
    // the table.
    enforce_budget();
  }
  return result;
}

BallStoreStats ball_store_stats() {
  std::lock_guard<std::mutex> lk(g_mutex);
  BallStoreStats out = g_stats;
  out.interned_signatures = g_sig_keys.size();
  out.bytes = g_intern_bytes + g_memo_bytes + g_shape_bytes;
  return out;
}

void note_ball_oracle_check(bool agreed) {
  std::lock_guard<std::mutex> lk(g_mutex);
  ++g_stats.oracle_checks;
  if (!agreed) ++g_stats.oracle_disagreements;
}

void clear_ball_store() {
  std::lock_guard<std::mutex> lk(g_mutex);
  clear_intern_table();
  clear_memo();
  g_tree_ok.clear();
  g_shape_bytes = 0;
}

void set_ball_store_budget(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(g_mutex);
  g_budget = bytes;
  enforce_budget();
}

std::size_t ball_store_bytes() {
  std::lock_guard<std::mutex> lk(g_mutex);
  return g_intern_bytes + g_memo_bytes + g_shape_bytes;
}

}  // namespace ldlb
