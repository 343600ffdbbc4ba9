#include "obs/collector.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace aspmt::obs {

Collector::Collector(EventSink& sink, std::size_t recorders)
    : Collector(sink, recorders, Options()) {}

Collector::Collector(EventSink& sink, std::size_t recorders, Options options)
    : sink_(sink), options_(options), epoch_(Recorder::Clock::now()) {
  recorders_.reserve(recorders);
  for (std::size_t i = 0; i < recorders; ++i) {
    recorders_.push_back(std::make_unique<Recorder>(
        static_cast<std::uint16_t>(i), epoch_, options_.ring_capacity));
  }
}

Collector::~Collector() { stop(); }

void Collector::start() {
  if (started_) return;
  started_ = true;
  for (auto& r : recorders_) r->set_enabled(true);
  thread_ = std::thread([this] { drain_loop(); });
}

void Collector::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  {
    std::lock_guard lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  // Producers must be quiescent by now (workers joined before stop()); the
  // final sweep below therefore sees every remaining event.
  for (auto& r : recorders_) r->set_enabled(false);
  drain_once(/*final=*/true);
  const std::uint64_t dropped = dropped_total();
  if (dropped != 0) sink_.on_drop(dropped);
  sink_.flush();
}

std::uint64_t Collector::dropped_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : recorders_) total += r->ring().dropped();
  return total;
}

void Collector::drain_loop() {
  const auto interval = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::duration<double>(options_.drain_interval_seconds));
  for (;;) {
    drain_once(/*final=*/false);
    sink_.tick();
    std::unique_lock lock(mutex_);
    if (cv_.wait_for(lock, interval, [this] { return stop_requested_; })) {
      return;
    }
  }
}

void Collector::drain_once(bool final) {
  // Read the watermark before popping.  An event pushed after this sweep
  // popped its ring waits for the next sweep; anything that happened after
  // that push is stamped after the pop, hence past the watermark, and waits
  // too, so cross-thread order survives the merge.
  const std::uint64_t watermark =
      final ? std::numeric_limits<std::uint64_t>::max()
            : static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Recorder::Clock::now() - epoch_)
                      .count());
  for (auto& r : recorders_) r->ring().pop_all(batch_);
  // Per-ring order is emission order; merging by timestamp gives the sink a
  // globally monotone stream (up to clock resolution) across workers.
  std::stable_sort(batch_.begin(), batch_.end(),
                   [](const Event& a, const Event& b) { return a.t_ns < b.t_ns; });
  const auto held = std::upper_bound(
      batch_.begin(), batch_.end(), watermark,
      [](std::uint64_t w, const Event& e) { return w < e.t_ns; });
  for (auto it = batch_.begin(); it != held; ++it) sink_.on_event(*it);
  batch_.erase(batch_.begin(), held);
}

}  // namespace aspmt::obs
