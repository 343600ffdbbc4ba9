#include "pareto/concurrent_archive.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace aspmt::pareto {

ConcurrentArchive::ConcurrentArchive(const std::string& kind,
                                     std::size_t dimensions,
                                     std::size_t shards)
    : dims_(dimensions) {
  assert(shards >= 1);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->archive = make_archive(kind, dimensions);
    shards_.push_back(std::move(shard));
  }
}

std::size_t ConcurrentArchive::shard_of(const Vec& p) const noexcept {
  // FNV-1a over the raw objective values; any stable content hash works.
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::int64_t v : p) {
    h ^= static_cast<std::uint64_t>(v);
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h % shards_.size());
}

bool ConcurrentArchive::insert(const Vec& p, const std::atomic<bool>* cancel) {
  require_arity(p, dims_);
  // Optimistic fast path: most candidates lose against the current front;
  // reject them with per-shard shared locks and no global serialization.
  for (const auto& s : shards_) {
    std::shared_lock lock(s->mutex);
    if (s->archive->find_weak_dominator(p) != nullptr) return false;
  }
  // Cancellation point: the escalation to the exclusive all-shard lock is
  // the only phase that mutates, so bailing here leaves every shard (and
  // the log/generation pair) exactly as it was — the front stays
  // dominance-consistent no matter when the token trips.
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    return false;
  }
  // Slow path: take every shard exclusively (ascending index order — the
  // single lock order in this class, so no deadlock) and re-run the checks,
  // since a peer may have inserted between the optimistic pass and here.
  std::vector<std::unique_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& s : shards_) locks.emplace_back(s->mutex);
  for (const auto& s : shards_) {
    if (s->archive->find_weak_dominator(p) != nullptr) return false;
  }
  for (const auto& s : shards_) s->archive->erase_dominated_by(p);
  const bool inserted = shards_[shard_of(p)]->archive->insert(p);
  assert(inserted);
  (void)inserted;
  {
    std::unique_lock log_lock(log_mutex_);
    log_.push_back(p);
    generation_.store(log_.size(), std::memory_order_release);
  }
  return true;
}

std::uint64_t ConcurrentArchive::fetch_updates(std::uint64_t since,
                                               std::vector<Vec>& out) const {
  std::shared_lock lock(log_mutex_);
  for (std::size_t i = since; i < log_.size(); ++i) out.push_back(log_[i]);
  return log_.size();
}

std::vector<Vec> ConcurrentArchive::points() const {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& s : shards_) locks.emplace_back(s->mutex);
  std::vector<Vec> out;
  for (const auto& s : shards_) {
    std::vector<Vec> part = s->archive->points();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ConcurrentArchive::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    std::shared_lock lock(s->mutex);
    total += s->archive->size();
  }
  return total;
}

std::uint64_t ConcurrentArchive::comparisons() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    std::shared_lock lock(s->mutex);
    total += s->archive->comparisons();
  }
  return total;
}

}  // namespace aspmt::pareto
