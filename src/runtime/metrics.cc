#include "src/runtime/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace lplow {
namespace runtime {

void Timer::Record(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  total_seconds_ += seconds;
  max_seconds_ = std::max(max_seconds_, seconds);
}

uint64_t Timer::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Timer::total_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_seconds_;
}

double Timer::mean_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ > 0 ? total_seconds_ / count_ : 0.0;
}

double Timer::max_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_seconds_;
}

void Timer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  count_ = 0;
  total_seconds_ = 0;
  max_seconds_ = 0;
}

std::span<const double> Histogram::BucketBounds() {
  // One shared table for every histogram in the process: kNumBuckets - 1
  // ascending powers of two (the overflow bucket has no upper bound).
  static const std::array<double, kNumBuckets - 1>* bounds = [] {
    auto* b = new std::array<double, kNumBuckets - 1>();
    for (size_t i = 0; i < b->size(); ++i) {
      (*b)[i] = std::ldexp(1.0, kMinExponent + static_cast<int>(i));
    }
    return b;
  }();
  return *bounds;
}

void Histogram::Record(double value) {
  const std::span<const double> bounds = BucketBounds();
  // First bucket whose upper bound holds the value; past the table = the
  // overflow bucket. Non-finite garbage (NaN, +inf, -inf) lands in overflow
  // too and is counted, but stays out of sum_ so the sum — and the JSON
  // export — remains a finite number.
  const bool finite = std::isfinite(value);
  const size_t index =
      finite ? static_cast<size_t>(
                   std::lower_bound(bounds.begin(), bounds.end(), value) -
                   bounds.begin())
             : kNumBuckets - 1;
  std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  if (finite) sum_ += value;
  ++buckets_[index];
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::Quantile(double q) const {
  const std::span<const double> bounds = BucketBounds();
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * count_)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      return i < bounds.size() ? bounds[i] : bounds.back();
    }
  }
  return bounds.back();  // Unreachable: cumulative == count_ by the end.
}

std::vector<std::pair<int, uint64_t>> Histogram::NonzeroBuckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int, uint64_t>> out;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] != 0) {
      out.emplace_back(kMinExponent + static_cast<int>(i), buckets_[i]);
    }
  }
  return out;
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  count_ = 0;
  sum_ = 0;
  buckets_.fill(0);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Timer* MetricsRegistry::GetTimer(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), std::make_unique<Timer>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

namespace {

// Metric names are identifier-like by convention, but escape the JSON
// specials anyway so the export is always well-formed.
void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

}  // namespace

void MetricsRegistry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) os << ',';
    first = false;
    WriteJsonString(os, name);
    os << ':' << counter->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) os << ',';
    first = false;
    WriteJsonString(os, name);
    os << ':' << gauge->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) os << ',';
    first = false;
    WriteJsonString(os, name);
    os << ":{\"count\":" << hist->count() << ",\"sum\":" << hist->sum()
       << ",\"p50\":" << hist->Quantile(0.50)
       << ",\"p90\":" << hist->Quantile(0.90)
       << ",\"p99\":" << hist->Quantile(0.99) << ",\"buckets\":{";
    bool first_bucket = true;
    for (const auto& [exponent, bucket_count] : hist->NonzeroBuckets()) {
      if (!first_bucket) os << ',';
      first_bucket = false;
      // Keyed by bucket exponent: "2^k" counts values in (2^(k-1), 2^k];
      // "overflow" (exponent kMaxExponent + 1) counts the rest.
      if (exponent > Histogram::kMaxExponent) {
        os << "\"overflow\"";
      } else {
        os << "\"2^" << exponent << '"';
      }
      os << ':' << bucket_count;
    }
    os << "}}";
  }
  os << "},\"timers\":{";
  first = true;
  for (const auto& [name, timer] : timers_) {
    if (!first) os << ',';
    first = false;
    WriteJsonString(os, name);
    os << ":{\"count\":" << timer->count()
       << ",\"total_seconds\":" << timer->total_seconds()
       << ",\"mean_seconds\":" << timer->mean_seconds()
       << ",\"max_seconds\":" << timer->max_seconds() << '}';
  }
  os << "}}";
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
  for (auto& [name, timer] : timers_) timer->Reset();
}

}  // namespace runtime
}  // namespace lplow
