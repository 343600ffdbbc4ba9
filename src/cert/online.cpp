#include "cert/online.hpp"

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <exception>
#include <utility>

namespace aspmt::cert {
namespace {

/// Keep the calling thread off `cpu`, the CPU the search ran on when the
/// checker started.  Linux tends to wake a thread on the CPU of the thread
/// that woke it, so a checker woken for every sealed chunk could end up
/// taking turns with the search on one CPU instead of running beside it.
/// Only a hint: with a single allowed CPU, or on any error, the thread
/// stays where the scheduler puts it.
void avoid_cpu(int cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (cpu < 0 || cpu >= CPU_SETSIZE ||
      sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      !CPU_ISSET(cpu, &allowed) || CPU_COUNT(&allowed) < 2) {
    return;
  }
  CPU_CLR(cpu, &allowed);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed);
}

}  // namespace

OnlineCertifier::OnlineCertifier(const synth::Specification& spec)
    : certifier_(spec), thread_([this, cpu = sched_getcpu()] {
        avoid_cpu(cpu);
        run();
      }) {}

OnlineCertifier::~OnlineCertifier() { cancel(); }

void OnlineCertifier::push_chunk(std::string_view chunk) {
  if (!chunk.empty()) push(Item{chunk, {}, {}});
}

void OnlineCertifier::push_discovery(pareto::Vec point,
                                     synth::Implementation impl) {
  push(Item{{}, std::move(point), std::move(impl)});
}

void OnlineCertifier::push(Item item) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(item));
  }
  ready_.notify_one();
}

void OnlineCertifier::run() {
  using Clock = std::chrono::steady_clock;
  std::deque<Item> batch;
  try {
    for (;;) {
      {
        std::unique_lock lock(mutex_);
        ready_.wait(lock, [this] {
          return !queue_.empty() || closed_ ||
                 cancelled_.load(std::memory_order_relaxed);
        });
        if (queue_.empty() || cancelled_.load(std::memory_order_relaxed)) {
          return;
        }
        batch.swap(queue_);
      }
      const Clock::time_point start = Clock::now();
      for (const Item& item : batch) {
        if (certifier_.failed() || cancelled_.load(std::memory_order_relaxed)) {
          break;  // the verdict is settled: skip the rest
        }
        if (item.chunk.empty()) {
          certifier_.admit(item.point, item.impl);
        } else {
          certifier_.feed(item.chunk);
        }
      }
      batch.clear();
      busy_ += std::chrono::duration<double>(Clock::now() - start).count();
    }
  } catch (const std::exception& e) {
    thread_error_ = e.what();
  } catch (...) {
    thread_error_ = "unknown exception";
  }
}

void OnlineCertifier::stop(bool drain) {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
    if (!drain) cancelled_.store(true, std::memory_order_relaxed);
  }
  ready_.notify_one();
  if (thread_.joinable()) thread_.join();
}

CertifyResult OnlineCertifier::finish(std::span<const pareto::Vec> front) {
  stop(true);
  if (!thread_error_.empty()) {
    CertifyResult result;
    result.error = "checker thread failed: " + thread_error_;
    return result;
  }
  return certifier_.finish(front);
}

void OnlineCertifier::cancel() { stop(false); }

}  // namespace aspmt::cert
