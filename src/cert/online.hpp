// Online certification: a FrontCertifier on a thread of its own, replaying
// a one-worker run's proof while the search is still writing it.
//
// The search thread queues, in stream order, each proof chunk the moment
// asp::ProofLog seals it and each discovery (point plus witness) right
// after its archive insert, before the `F` step that announces it is
// logged.  The checker thread validates and admits each discovery and
// replays each chunk in queue order, so the rule of the batch check holds
// unchanged: every `F` step and dominance source names a witness validated
// before it.  When the search ends, finish() waits for the thread to drain
// the queue and completes the certification (floor claims, front
// minimality) on the calling thread.  Certified wall time then tends to the
// longer of search and replay, plus this short tail, instead of their sum.
// The checker thread keeps off the CPU its creator (the search) ran on when
// it started, so that the two run side by side (online.cpp, avoid_cpu).
//
// Solver and checker still share no code: only bytes and validated points
// cross the queue.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "cert/certify.hpp"

namespace aspmt::cert {

class OnlineCertifier {
 public:
  /// Starts the checker thread.  `spec` must outlive the certifier and
  /// satisfy spec.validate().empty().
  explicit OnlineCertifier(const synth::Specification& spec);
  /// Stops and joins the thread when finish() was not called.
  ~OnlineCertifier();
  OnlineCertifier(const OnlineCertifier&) = delete;
  OnlineCertifier& operator=(const OnlineCertifier&) = delete;

  /// Queue a sealed proof chunk.  Its bytes must stay valid and unchanged
  /// until finish(), cancel() or destruction.
  void push_chunk(std::string_view chunk);
  /// Queue a discovery: it is validated and admitted before any chunk
  /// queued after it is replayed.
  void push_discovery(pareto::Vec point, synth::Implementation impl);
  /// Wait until the thread has replayed everything queued, then finish the
  /// certification of `front` on the calling thread.  Call once.
  [[nodiscard]] CertifyResult finish(std::span<const pareto::Vec> front);
  /// Stop the thread without a verdict: the run cannot be certified.
  void cancel();
  /// Seconds the thread spent validating witnesses and replaying chunks;
  /// read it after finish() or cancel().
  [[nodiscard]] double busy_seconds() const noexcept { return busy_; }

 private:
  struct Item {
    std::string_view chunk;  // a proof chunk, or empty for a discovery
    pareto::Vec point;
    synth::Implementation impl;
  };

  void push(Item item);
  void run();
  void stop(bool drain);

  FrontCertifier certifier_;
  std::mutex mutex_;  // guards queue_ and closed_
  std::condition_variable ready_;
  std::deque<Item> queue_;
  bool closed_ = false;  // nothing more will be queued
  std::atomic<bool> cancelled_{false};
  double busy_ = 0.0;
  std::string thread_error_;  // an exception that ended the thread
  std::thread thread_;  // last: started once the members above exist
};

}  // namespace aspmt::cert
