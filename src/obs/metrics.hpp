// Process-wide metrics registry: named counters, gauges and histograms
// snapshotted per training step and dumpable as JSON.
//
// Instrument sites fetch a handle once (typically a function-local
// static — Metrics() handles are never invalidated; ResetValues zeroes
// values but keeps every instance alive) and then update it lock-free:
//
//   static obs::Counter& hits = obs::Metrics().counter("alloc.cache.hits");
//   hits.Add();
//
// Counters and gauges are single atomics. Histograms take a per-instance
// mutex on Observe — fine at the call rates the runtime instruments
// (per-step, per-flush, per-allocation), and in exchange the snapshot is
// exact (count/sum/min/max plus base-2 log buckets for quantiles).
//
// The registry is deliberately process-global across SPMD ranks: rank
// threads of one run aggregate into the same metrics, matching how a
// real multi-process job would aggregate per-node series in a scraper.
// Per-rank quantities that must stay exact (CommStats, DeviceStats)
// keep their existing per-instance structs; the registry is the
// cross-cutting, named view.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace zero::obs {

class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 64;

  struct Summary {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double mean = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
  };

  void Observe(double v);
  [[nodiscard]] Summary Snapshot() const;
  void Reset();

 private:
  // Bucket upper bounds are powers of two: bucket i holds values in
  // (2^(i-1), 2^i] with bucket 0 catching everything <= 1. Quantiles
  // interpolate within the winning bucket — plenty for latency series.
  static int BucketFor(double v);
  [[nodiscard]] double QuantileLocked(double q) const;

  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::uint64_t buckets_[kBuckets] = {};
};

class MetricsRegistry {
 public:
  // Constructible so tests and tools can hold private registries; the
  // runtime's instrument sites all aggregate into Metrics(). A private
  // registry's handles die with it; the process-wide one never dies.
  MetricsRegistry();
  ~MetricsRegistry();

  // Fetches (creating on first use) the named metric. A name is bound to
  // one metric kind for the life of the process; asking for the same
  // name as a different kind is a ZERO_CHECK failure.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Zeroes every metric's value. Instances (and any cached handles)
  // stay valid.
  void ResetValues();

  // One JSON object: {"counters":{name:value,...},"gauges":{...},
  // "histograms":{name:{count,sum,min,max,mean,p50,p95,p99},...}}.
  [[nodiscard]] std::string SnapshotJson() const;

  // Visitation for custom reporters (names in sorted order).
  void VisitCounters(
      const std::function<void(const std::string&, const Counter&)>& fn) const;
  void VisitGauges(
      const std::function<void(const std::string&, const Gauge&)>& fn) const;
  void VisitHistograms(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const;

 private:
  struct Impl;
  [[nodiscard]] Impl& impl() const;
  mutable std::unique_ptr<Impl> impl_;
  mutable std::mutex impl_mutex_;
};

// The process-wide registry.
MetricsRegistry& Metrics();

}  // namespace zero::obs
