#include "svc/cache.hpp"

#include <iostream>
#include <istream>
#include <ostream>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace closfair::svc {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {
  CF_CHECK_MSG(capacity >= 1, "ResultCache capacity must be >= 1");
}

std::optional<std::string> ResultCache::find(const std::string& canonical) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(canonical);
  if (it == index_.end()) {
    OBS_COUNTER_INC("svc.cache_misses");
    return std::nullopt;
  }
  entries_.splice(entries_.begin(), entries_, it->second);
  OBS_COUNTER_INC("svc.cache_hits");
  return entries_.front().result;
}

bool ResultCache::insert(const std::string& canonical, std::string bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool fresh = insert_locked(canonical, std::move(bytes));
  OBS_GAUGE_SET("svc.cache_size", entries_.size());
  return fresh;
}

std::optional<ScenarioResult> ResultCache::lookup(const std::string& canonical) {
  std::optional<std::string> bytes = find(canonical);
  if (!bytes.has_value()) return std::nullopt;
  return ScenarioResult::from_json(Json::parse(*bytes));
}

bool ResultCache::insert(const std::string& canonical, const ScenarioResult& result) {
  return insert(canonical, result.to_json().dump());
}

bool ResultCache::insert_locked(const std::string& canonical, std::string bytes) {
  const auto it = index_.find(canonical);
  if (it != index_.end()) {
    // Same key ⇒ byte-identical result (the determinism contract), so the
    // refresh is semantically a no-op; skip the assignment while pinned —
    // pin holders read the bytes without the lock.
    if (it->second->pins == 0) it->second->result = std::move(bytes);
    entries_.splice(entries_.begin(), entries_, it->second);
    return false;
  }
  if (entries_.size() >= capacity_) {
    // Evict the least-recently-used unpinned entry; when every entry is
    // pinned, run over capacity rather than invalidate a live reader.
    for (auto victim = std::prev(entries_.end());; --victim) {
      if (victim->pins == 0) {
        erase_locked(victim);
        OBS_COUNTER_INC("svc.cache_evictions");
        break;
      }
      if (victim == entries_.begin()) break;
    }
  }
  entries_.push_front(Entry{canonical, std::move(bytes), 0});
  index_.emplace(canonical, entries_.begin());
  by_hash_[fnv1a64(canonical)] = entries_.begin();
  return true;
}

void ResultCache::erase_locked(std::list<Entry>::iterator it) {
  const auto hashed = by_hash_.find(fnv1a64(it->spec));
  if (hashed != by_hash_.end() && hashed->second == it) by_hash_.erase(hashed);
  index_.erase(it->spec);
  entries_.erase(it);
}

std::optional<ResultCache::BasePin> ResultCache::pin_base(std::uint64_t hash) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_hash_.find(hash);
  if (it == by_hash_.end()) return std::nullopt;
  entries_.splice(entries_.begin(), entries_, it->second);
  ++it->second->pins;
  return BasePin{this, it->second};
}

void ResultCache::unpin(std::list<Entry>::iterator it) {
  std::lock_guard<std::mutex> lock(mu_);
  CF_CHECK_MSG(it->pins > 0, "BasePin released an entry that was not pinned");
  --it->pins;
}

ResultCache::BasePin& ResultCache::BasePin::operator=(BasePin&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr) cache_->unpin(it_);
    cache_ = other.cache_;
    it_ = other.it_;
    other.cache_ = nullptr;
  }
  return *this;
}

ScenarioResult ResultCache::BasePin::result() const {
  return ScenarioResult::from_json(Json::parse(bytes()));
}

ResultCache::BasePin::~BasePin() {
  if (cache_ != nullptr) cache_->unpin(it_);
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void ResultCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->pins == 0) {
      erase_locked(it++);
    } else {
      ++it;
    }
  }
}

void ResultCache::save(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Reverse order: the reload inserts sequentially, so writing LRU-first
  // makes the last line — the most recent entry — land at the front again.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    // The bytes Json{"hash","spec","result"}.dump() would write, with the
    // stored result bytes spliced in.
    out << R"({"hash":")" << hash_hex(fnv1a64(it->spec)) << R"(","spec":")"
        << json_escape(it->spec) << R"(","result":)" << it->result << "}\n";
  }
}

std::size_t ResultCache::load(std::istream& in) {
  std::string line;
  std::size_t loaded = 0;
  std::size_t line_no = 0;
  // A bad line is *deferred* rather than thrown: if it turns out to be the
  // file's final record it was a torn append (process killed mid-save) and
  // is skipped with a warning; a bad line followed by more content is real
  // corruption and aborts the load.
  std::string deferred;
  bool deferred_is_json = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!deferred.empty()) {
      if (deferred_is_json) throw JsonParseError(deferred);
      throw SpecError(deferred);
    }
    const auto annotate = [&](const char* what) -> std::string {
      return "cache line " + std::to_string(line_no) + ": " + what;
    };
    try {
      const Json entry = Json::parse(line);
      if (!entry.is_object()) throw SpecError("entry is not an object");
      const Json* spec_text = entry.find("spec");
      const Json* result_json = entry.find("result");
      if (spec_text == nullptr || !spec_text->is_string() || result_json == nullptr) {
        throw SpecError("entry needs string 'spec' and 'result'");
      }
      // Re-canonicalize: a spill edited (or produced by an older writer)
      // with non-canonical spec bytes would otherwise sit in the cache
      // forever without ever matching a lookup.
      const ScenarioSpec spec =
          ScenarioSpec::from_json(Json::parse(spec_text->as_string()));
      // Validate through the struct and store its canonical rendering, so
      // whitespace or key order edited into a spill never reaches a client.
      std::string bytes = ScenarioResult::from_json(*result_json).to_json().dump();
      std::lock_guard<std::mutex> lock(mu_);
      // Only a *new* entry counts: a duplicate canonical line refreshes the
      // existing node (insert replaces, it doesn't add).
      if (insert_locked(spec.canonical(), std::move(bytes))) ++loaded;
    } catch (const JsonParseError& e) {
      deferred = annotate(e.what());
      deferred_is_json = true;
    } catch (const std::exception& e) {
      deferred = annotate(e.what());
      deferred_is_json = false;
    }
  }
  if (!deferred.empty()) {
    OBS_COUNTER_INC("svc.cache_spill_skipped");
    std::cerr << "warning: skipped torn trailing cache record (" << deferred << ")\n";
  }
  // One refresh at the end keeps the gauge honest regardless of how the
  // stream terminated (duplicate lines, a skipped torn record, or an empty
  // spill set the gauge to the true size rather than a stale per-line echo).
  std::lock_guard<std::mutex> lock(mu_);
  OBS_GAUGE_SET("svc.cache_size", entries_.size());
  return loaded;
}

}  // namespace closfair::svc
