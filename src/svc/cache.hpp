// Content-addressed result cache for the scenario-evaluation service.
//
// Keys are the *canonical* spec bytes (ScenarioSpec::canonical()); two
// requests that spell the same scenario differently therefore share one
// entry, and the FNV-1a content hash of the key doubles as the response's
// stable scenario address. Values are the result's rendered JSON bytes —
// exactly what follows "result": in a response and in the spill — so a hit
// is answered by splicing them into an envelope, never by re-rendering. A
// secondary index maps that content hash back to its entry so delta
// requests ({"base":"<hash>"}) can resolve the base spec without holding
// the canonical bytes. Eviction is LRU over a fixed entry capacity;
// entries pinned by an outstanding BasePin are exempt (delta resolution
// pins its base for the duration of the warm evaluation).
// Entries spill to JSONL — one {"hash","spec","result"} object per line,
// least-recent first so a reload replays insertions in recency order — and
// reload validates each line by re-canonicalizing the spec and re-rendering
// the result, so a stale or hand-edited spill can neither poison lookups
// with unreachable keys nor serve non-canonical result bytes.
//
// All public methods are thread-safe behind one mutex. A wire Pipeline's
// admitting thread looks entries up and pins delta bases while its
// draining thread commits results, and connections share one cache; every
// critical section is a hash probe plus at most one copy of the bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include <mutex>

#include "svc/spec.hpp"

namespace closfair::svc {

class ResultCache {
 private:
  struct Entry {
    std::string spec;    ///< canonical bytes (the key)
    std::string result;  ///< rendered ScenarioResult JSON
    int pins = 0;  ///< outstanding BasePins; > 0 exempts from eviction
  };

 public:
  /// `capacity` = maximum retained entries (>= 1).
  explicit ResultCache(std::size_t capacity = 1024);

  /// Copy of the cached result bytes for this canonical spec, refreshing
  /// its recency; nullopt on miss. Bumps svc.cache_hits / svc.cache_misses.
  [[nodiscard]] std::optional<std::string> find(const std::string& canonical);

  /// Insert or refresh. `bytes` must be a rendered result
  /// (ScenarioResult::to_json().dump()) and `canonical` canonical spec bytes
  /// — the cache trusts its caller and re-derives neither. Evicts the
  /// least-recently-used *unpinned* entry when full (bumps
  /// svc.cache_evictions; when every entry is pinned the cache temporarily
  /// exceeds capacity instead). Returns true when a new entry was created,
  /// false when an existing entry was refreshed.
  bool insert(const std::string& canonical, std::string bytes);

  /// find(), parsed back into a ScenarioResult.
  /// Survives only for e2ebench/replay.cpp (ROADMAP item 6).
  [[nodiscard]] std::optional<ScenarioResult> lookup(const std::string& canonical);

  /// insert() of the result's rendered bytes.
  /// Survives only for e2ebench/replay.cpp (ROADMAP item 6).
  bool insert(const std::string& canonical, const ScenarioResult& result);

  /// RAII pin on one cache entry. While the pin is alive the entry cannot be
  /// evicted, cleared, or have its result bytes reassigned, so canonical()
  /// and bytes() are stable references readable without the cache lock —
  /// delta resolution pins its base across the warm evaluation.
  class BasePin {
   public:
    BasePin(BasePin&& other) noexcept : cache_(other.cache_), it_(other.it_) {
      other.cache_ = nullptr;
    }
    BasePin& operator=(BasePin&& other) noexcept;
    BasePin(const BasePin&) = delete;
    BasePin& operator=(const BasePin&) = delete;
    ~BasePin();

    [[nodiscard]] const std::string& canonical() const { return it_->spec; }
    [[nodiscard]] const std::string& bytes() const { return it_->result; }
    /// bytes(), parsed back into a ScenarioResult.
    /// Survives only for e2ebench/replay.cpp (ROADMAP item 6).
    [[nodiscard]] ScenarioResult result() const;

   private:
    friend class ResultCache;
    BasePin(ResultCache* cache, std::list<Entry>::iterator it) : cache_(cache), it_(it) {}

    ResultCache* cache_ = nullptr;
    std::list<Entry>::iterator it_;
  };

  /// Pin the entry whose canonical bytes have FNV-1a content hash `hash`,
  /// refreshing its recency; nullopt when no cached entry carries that
  /// address.
  [[nodiscard]] std::optional<BasePin> pin_base(std::uint64_t hash);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drop every unpinned entry (pinned entries survive — their readers hold
  /// live references).
  void clear();

  /// Write every entry as JSONL, least-recently-used first.
  void save(std::ostream& out) const;

  /// Load a save() spill, inserting line by line (so the stream's last line
  /// ends up most recent). Returns the number of *distinct* entries added —
  /// a line whose canonical spec is already present refreshes that entry
  /// without counting. The svc.cache_size gauge is refreshed once at load
  /// end. A malformed *trailing* record — the signature of an append torn by
  /// a crash — is skipped with a stderr warning and a svc.cache_spill_skipped
  /// count; a malformed line followed by more content is corruption and
  /// throws JsonParseError / SpecError with the 1-based line number.
  std::size_t load(std::istream& in);

 private:
  // front = most recently used. index_ maps the canonical bytes to the list
  // node holding them; by_hash_ maps their FNV-1a content hash the same way
  // (last writer wins on the astronomically unlikely 64-bit collision — the
  // older entry stays reachable by canonical bytes, just not by address).
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> entries_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> by_hash_;

  bool insert_locked(const std::string& canonical, std::string bytes);
  void erase_locked(std::list<Entry>::iterator it);
  void unpin(std::list<Entry>::iterator it);
};

}  // namespace closfair::svc
