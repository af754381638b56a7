// Measurement primitives of the benchmark, free of any library
// dependency so the self-test binary can check them in isolation:
//
//   * Rng          — the seeded generator every workload draws from;
//   * Samples      — latency samples with the percentile rule (at
//                    least kMinBeyond samples beyond a percentile) and
//                    a median over time groups;
//   * Rate         — events per second, median over time windows;
//   * ratio()      — a share whose zero base reads as 0, never NaN/inf;
//   * SpanLog      — benchmark-side spans (name, start, end, parent,
//                    request id) with self-time subtraction;
//   * Report       — the named metrics a run prints, in order.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// splitmix64-seeded xoshiro256** — every workload input is drawn from
/// one of these, seeded from --seed, so equal seeds give equal inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (auto& w : s_) {
      seed += 0x9e3779b97f4a7c15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
  }
  uint64_t next() {
    const uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, bound).
  uint64_t below(uint64_t bound) { return next() % bound; }
  /// Standard normal (Box-Muller).
  double normal() {
    double u1 = uniform(), u2 = uniform();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  static uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

/// A share num/den whose zero base reads as 0 (and never NaN or inf).
/// Every ratio the benchmark prints goes through here; runs also print
/// the base next to the ratio so a 0 is never mistaken for a measurement.
inline double ratio(double num, double den) {
  if (!(den > 0.0) || !std::isfinite(num) || !std::isfinite(den)) return 0.0;
  const double q = num / den;
  return std::isfinite(q) ? q : 0.0;
}

/// A timing sample set, each sample stamped with the time it was taken.
///
/// Percentiles use the nearest-rank definition: the q-percentile of n
/// samples is the ceil(q*n)-th smallest, and the samples "beyond" it are
/// the n - ceil(q*n) larger ranks; a set supports q only with at least
/// kMinBeyond samples beyond it. percentile() splits the samples, in
/// time order, into as many equal consecutive groups (at most kGroups)
/// as each still support q, and reports the median of the groups'
/// percentiles — so one disturbed stretch of a run moves one group, not
/// the figure.
class Samples {
 public:
  /// A percentile needs at least this many samples beyond it.
  static constexpr size_t kMinBeyond = 10;
  /// At most this many time groups per percentile.
  static constexpr size_t kGroups = 10;

  void add(double v, uint64_t t_ns) { v_.push_back({t_ns, v}); }
  void add(double v) { add(v, now_ns()); }
  size_t size() const { return v_.size(); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }

  /// 1-based nearest rank of the q-percentile among n samples.
  static size_t rank(size_t n, double q) {
    size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
    return std::clamp<size_t>(r, 1, n == 0 ? 1 : n);
  }
  /// Does a set of n samples support the q-percentile?
  static bool supports(size_t n, double q) {
    return n > 0 && n - rank(n, q) >= kMinBeyond;
  }
  /// Smallest sample count that supports the q-percentile.
  static size_t min_count(double q) {
    size_t n = 1;
    while (!supports(n, q)) ++n;
    return n;
  }
  /// Time groups percentile(q) uses for n samples (0 = unsupported).
  static size_t groups(size_t n, double q) {
    return std::min(kGroups, n / min_count(q));
  }

  /// Median over time groups of the q-percentile (see the class
  /// comment), or NaN when the sample does not support q (the caller
  /// turns that into a failed check; see Report::timing).
  double percentile(double q) const {
    const size_t g = groups(v_.size(), q);
    if (g == 0) return std::nan("");
    std::vector<std::pair<uint64_t, double>> s = v_;
    std::stable_sort(s.begin(), s.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<double> per;
    for (size_t k = 0; k < g; ++k) {
      const size_t a = s.size() * k / g, b = s.size() * (k + 1) / g;
      std::vector<double> grp;
      for (size_t i = a; i < b; ++i) grp.push_back(s[i].second);
      const size_t r = rank(grp.size(), q) - 1;
      std::nth_element(grp.begin(), grp.begin() + static_cast<long>(r), grp.end());
      per.push_back(grp[r]);
    }
    std::sort(per.begin(), per.end());
    return g % 2 ? per[g / 2] : 0.5 * (per[g / 2 - 1] + per[g / 2]);
  }
  double mean() const {
    if (v_.empty()) return 0.0;
    double t = 0;
    for (const auto& x : v_) t += x.second;
    return t / static_cast<double>(v_.size());
  }

 private:
  std::vector<std::pair<uint64_t, double>> v_;  // (taken at ns, value)
};

/// Events counted over a phase; rate() is the median over kGroups equal
/// time windows of the phase of (events in the window / its length).
class Rate {
 public:
  void add(uint64_t count, uint64_t t_ns) { ev_.push_back({t_ns, count}); }
  void append(const Rate& o) { ev_.insert(ev_.end(), o.ev_.begin(), o.ev_.end()); }
  /// Events recorded (not weighted by count).
  size_t count() const { return ev_.size(); }
  double rate(uint64_t t0, uint64_t t1) const {
    if (t1 <= t0) return 0.0;
    const size_t g = Samples::kGroups;
    std::vector<double> per(g, 0.0);
    const double len = double(t1 - t0) / double(g);
    for (const auto& [t, c] : ev_) {
      if (t < t0 || t >= t1) continue;
      per[std::min(g - 1, static_cast<size_t>(double(t - t0) / len))] += double(c);
    }
    for (double& x : per) x /= len / 1e9;
    std::sort(per.begin(), per.end());
    return 0.5 * (per[g / 2 - 1] + per[g / 2]);
  }

 private:
  std::vector<std::pair<uint64_t, uint64_t>> ev_;
};

/// Benchmark-side spans. A span is (name, start, end, parent, request);
/// parent = 0 marks a root, ids are 1-based positions. A layer's self
/// time is its span's duration minus the part of that interval its
/// child spans cover (overlapping children count once; a child is
/// clipped to its parent's interval). One SpanLog per thread.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns, end_ns;
    uint32_t parent;  // 0 = root
    uint64_t request;
  };

  uint32_t add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent = 0, uint64_t request = 0) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<uint32_t>(spans_.size());
  }
  const Span& get(uint32_t id) const { return spans_[id - 1]; }
  size_t size() const { return spans_.size(); }

  /// Self time of span `id`: duration minus the union of its direct
  /// children's intervals clipped to [start, end].
  uint64_t self_ns(uint32_t id) const {
    const Span& p = get(id);
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (uint32_t c = id + 1; c <= spans_.size(); ++c) {
      const Span& s = spans_[c - 1];
      if (s.parent != id) continue;
      const uint64_t a = std::max(s.start_ns, p.start_ns);
      const uint64_t b = std::min(s.end_ns, p.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    return (p.end_ns - p.start_ns) - covered(iv);
  }

  /// Length of the union of half-open intervals.
  static uint64_t covered(std::vector<std::pair<uint64_t, uint64_t>> iv) {
    std::sort(iv.begin(), iv.end());
    uint64_t total = 0, cur_a = 0, cur_b = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) total += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) total += cur_b - cur_a;
    return total;
  }

  /// Append every span as one JSON line ({"name","start_ns","dur_ns",
  /// "parent","request","thread"}); parent ids are local to `thread`.
  void write_jsonl(std::FILE* f, int thread) const {
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"thread\":%d,\"name\":\"%s\",\"start_ns\":%llu,"
                   "\"dur_ns\":%llu,\"parent\":%u,\"request\":%llu}\n",
                   thread, s.name, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns - s.start_ns),
                   s.parent, static_cast<unsigned long long>(s.request));
  }

 private:
  std::vector<Span> spans_;
};

/// The named metrics of one run, in print order, plus the run's
/// correctness bookkeeping. Timings go through timing(), which turns a
/// percentile the sample cannot support into a failed check instead of
/// a made-up number.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;  // sample count / base, printed in the log line
  };

  void set(const std::string& name, double value, const std::string& unit,
           std::string note = {}) {
    for (auto& m : metrics_)
      if (m.name == name) {
        m = {name, value, unit, std::move(note)};
        return;
      }
    metrics_.push_back({name, value, unit, std::move(note)});
  }

  /// Record samples.percentile(q) * scale under `name`. An unsupported
  /// percentile fails the run when `required` (end-to-end figures);
  /// otherwise it reads 0 with an "n/a" note (a per-layer stage that
  /// runs too rarely on a workload to have that percentile).
  void timing(const std::string& name, const Samples& s, double q,
              double scale, const std::string& unit, bool required = true) {
    const double v = s.percentile(q);
    if (std::isnan(v)) {
      char why[96];
      std::snprintf(why, sizeof why, "p%d needs %zu samples, has %zu",
                    static_cast<int>(q * 100), Samples::min_count(q), s.size());
      if (required) fail("percentile of " + name + ": " + std::string(why));
      set(name, 0.0, unit, std::string("n/a: ") + why);
      return;
    }
    char note[64];
    std::snprintf(note, sizeof note, "n=%zu in %zu groups", s.size(),
                  Samples::groups(s.size(), q));
    set(name, v * scale, unit, note);
  }

  /// Record a share num/den (0 on a zero base) with its base noted.
  void share(const std::string& name, double num, double den,
             const std::string& unit = "ratio") {
    char buf[64];
    std::snprintf(buf, sizeof buf, "base=%.6g", den);
    set(name, ratio(num, den), unit, buf);
  }

  /// A correctness check failed: the run is not correct and the check
  /// counts as one failed operation.
  void fail(const std::string& why) {
    ++mismatches_;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", why.c_str());
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  void add_attempted(uint64_t k) { attempted_ += k; }
  void add_failed(uint64_t k) { failed_ += k; }

  uint64_t mismatches() const { return mismatches_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_ + mismatches_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* find(const std::string& name) const {
    for (const auto& m : metrics_)
      if (m.name == name) return &m;
    return nullptr;
  }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0, failed_ = 0, mismatches_ = 0;
};

}  // namespace perfbench
