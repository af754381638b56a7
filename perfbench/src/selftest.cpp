// Self-tests of the benchmark's own measurement logic (measure.hpp):
// the percentile sample rule, span self-time subtraction, and ratios
// over a zero base. Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <string>

#include "measure.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void percentile_rule() {
  using perfbench::Samples;
  // p99 needs 10 samples beyond the 99th-percentile rank: n = 1000 has
  // rank 990 and 10 beyond; n = 999 has rank 990 and only 9 beyond.
  expect(Samples::supports(1000, 0.99), "p99 supported at n=1000");
  expect(!Samples::supports(999, 0.99), "p99 refused at n=999");
  expect(Samples::min_count(0.99) == 1000, "p99 needs 1000 samples");
  expect(Samples::min_count(0.50) == 20, "p50 needs 20 samples");
  expect(!Samples::supports(0, 0.50), "no percentile of an empty sample");

  Samples s;
  for (int i = 1; i <= 1000; ++i) s.add(i);
  expect(s.percentile(0.99) == 990, "nearest-rank p99 of 1..1000 is 990");
  expect(s.percentile(0.50) == 500, "nearest-rank p50 of 1..1000 is 500");
  Samples few;
  for (int i = 0; i < 19; ++i) few.add(i);
  expect(std::isnan(few.percentile(0.50)), "p50 of 19 samples is refused");

  perfbench::Report r;
  std::printf("(the CHECK FAILED line on stderr next is expected)\n");
  std::fflush(stdout);
  r.timing("x_p99", few, 0.99, 1, "ms");
  expect(r.mismatches() == 1, "an unsupported percentile fails the run");
  r.timing("y_p50", s, 0.50, 1, "ms");
  expect(r.mismatches() == 1 && r.find("y_p50")->value == 500,
         "a supported percentile is recorded and does not fail");
}

void grouped_median() {
  using perfbench::Samples;
  // 10,000 samples in time order, all 1.0 except one disturbed stretch
  // (the 4th tenth) at 100: a plain p99 over the whole set would read
  // 100; the median of the ten groups' p99s ignores the stretch.
  Samples s;
  for (int i = 0; i < 10000; ++i) s.add(i / 1000 == 3 ? 100.0 : 1.0, uint64_t(i));
  expect(Samples::groups(10000, 0.99) == 10, "10,000 samples give 10 p99 groups");
  expect(s.percentile(0.99) == 1.0, "one disturbed group does not move p99");
  // Groups follow time stamps, not insertion order.
  Samples t;
  for (int i = 0; i < 2000; ++i) t.add(i < 1000 ? 5.0 : 7.0, uint64_t(2000 - i));
  expect(Samples::groups(2000, 0.99) == 2 && t.percentile(0.99) == 6.0,
         "two time groups: median of 5 and 7 is 6");

  perfbench::Rate r;
  for (int i = 0; i < 100; ++i) r.add(10, uint64_t(i) * 10'000'000);  // 1 s
  r.add(100000, 500'000'000);  // one burst inside one window
  expect(std::abs(r.rate(0, 1'000'000'000) - 1000.0) < 1e-6,
         "windowed rate is the median window (burst ignored)");
}

void self_time() {
  perfbench::SpanLog log;
  const uint32_t root = log.add("flush", 0, 100);
  log.add("a", 10, 30, root);   // [10,30)
  log.add("b", 20, 50, root);   // overlaps a: union [10,50) = 40
  log.add("c", 70, 80, root);   // 10
  log.add("d", 90, 130, root);  // clipped to [90,100) = 10
  const uint32_t other = log.add("other", 0, 100);
  log.add("e", 0, 100, other);  // child of another span: ignored for root
  expect(log.self_ns(root) == 40, "self time = 100 - (40 + 10 + 10)");
  expect(log.self_ns(other) == 0, "a fully covered span has no self time");
  const uint32_t leaf = log.add("leaf", 5, 17);
  expect(log.self_ns(leaf) == 12, "a leaf's self time is its duration");
  expect(perfbench::SpanLog::covered({{0, 5}, {5, 10}, {20, 25}}) == 15,
         "adjacent intervals merge, gaps do not count");
}

void ratios() {
  using perfbench::ratio;
  expect(ratio(5, 0) == 0.0, "zero base reads as 0");
  expect(ratio(0, 0) == 0.0, "0/0 reads as 0");
  expect(std::isfinite(ratio(1e300, 1e-300)), "ratio stays finite");
  expect(ratio(3, 4) == 0.75, "ordinary ratio");
  expect(ratio(std::nan(""), 2) == 0.0, "NaN numerator reads as 0");
  perfbench::Report r;
  r.share("s", 1, 0);
  expect(r.find("s")->value == 0.0 && r.find("s")->note == "base=0",
         "a share over a zero base prints 0 with its base");
}

}  // namespace

int main() {
  percentile_rule();
  grouped_median();
  self_time();
  ratios();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
  return failures ? 1 : 0;
}
