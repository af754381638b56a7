// perfbench: the repository benchmark program.
//
//   perfbench --workload ingest|serve|window --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//   perfbench --list-metrics
//
// --trace 0 runs one untraced pass and ends with the end-to-end
// metrics as one JSON line. --trace 1 runs the same untraced pass and
// then a traced pass (benchmark-side spans around the calls into each
// layer), and ends with the per-layer metrics, including the traced
// pass's overhead against the untraced one. Spans of the traced pass
// are written to DIR/spans-<workload>-<seed>.jsonl.
//
// Exit codes: 0 ok; 1 an answer disagreed with the oracle (the JSON
// line still prints, with "correct": false); 2 usage or runtime error;
// 3 the open-loop generator did not sustain its offered rate (the run
// is invalid and prints no result).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

void run_workload(Pass& p) {
  if (p.opt.workload == "ingest") return run_ingest(p);
  if (p.opt.workload == "serve") return run_serve(p);
  if (p.opt.workload == "window") return run_window(p);
  throw std::invalid_argument("unknown workload: " + p.opt.workload);
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

void print_metric_lines(const char* tag, const Report& r) {
  for (const auto& m : r.metrics())
    std::printf("%s %s = %.17g %s%s%s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  # ", m.note.c_str());
}

/// Every metric of `defs` is in `r` (a missing one is a benchmark bug).
bool complete(const Report& r, const std::vector<MetricDef>& defs) {
  bool ok = true;
  for (const auto& d : defs)
    if (!r.find(d.name)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", d.name);
      ok = false;
    }
  return ok;
}

void print_json(const Report& r, const std::vector<MetricDef>& defs,
                bool correct, uint64_t attempted, uint64_t failed) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& d : defs) {
    const Report::Metric* m = r.find(d.name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                json_escape(d.name).c_str(), m->value, d.unit);
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|serve|window --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      for (const auto& m : end_to_end_metrics())
        std::printf("end_to_end %s %s %s\n", m.name, m.unit,
                    m.higher_better ? "higher" : "lower");
      for (const auto& m : per_layer_metrics())
        std::printf("per_layer %s %s %s\n", m.name, m.unit,
                    m.higher_better ? "higher" : "lower");
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v, have_workload = true;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--out-dir") opt.out_dir = v;
    else return usage();
  }
  if (!have_workload || !(opt.seconds > 0)) return usage();
  if (const char* env = std::getenv("DYNSLD_NUM_THREADS")) opt.pool_threads = std::atoi(env);
  std::filesystem::create_directories(opt.out_dir);
  const bool pinned = pin_engine();
  std::printf("config workload=%s seed=%llu seconds=%g trace=%d "
              "fork_join_pool=%d load_threads<=4 generator_cpu=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.pool_threads,
              pinned ? "last" : "shared");
  std::fflush(stdout);

  Pass plain(opt, false);
  run_workload(plain);
  if (!plain.invalid.empty()) {
    std::fprintf(stderr, "perfbench: INVALID RUN: %s\n", plain.invalid.c_str());
    return 3;
  }
  print_metric_lines("metric", plain.rep);
  if (!opt.trace) {
    if (!complete(plain.rep, end_to_end_metrics())) return 2;
    const bool ok = plain.rep.mismatches() == 0;
    print_json(plain.rep, end_to_end_metrics(), ok, plain.rep.attempted(),
               plain.rep.failed());
    return ok ? 0 : 1;
  }

  Pass traced(opt, true);
  run_workload(traced);
  if (!traced.invalid.empty()) {
    std::fprintf(stderr, "perfbench: INVALID RUN: %s\n", traced.invalid.c_str());
    return 3;
  }
  Report& r = traced.rep;
  // Tracing overhead for every metric that has a trace.overhead_pct.*
  // entry, signed so that positive means the traced pass did worse.
  std::vector<MetricDef> all = end_to_end_metrics();
  all.insert(all.end(), per_layer_metrics().begin(), per_layer_metrics().end());
  for (const auto& m : all) {
    const std::string name = std::string("trace.overhead_pct.") + m.name;
    const Report::Metric* a = plain.rep.find(m.name);
    const Report::Metric* b = r.find(m.name);
    bool listed = false;
    for (const auto& d : per_layer_metrics()) listed |= name == d.name;
    if (!listed || !a || !b) continue;
    const double worse = m.higher_better ? a->value - b->value : b->value - a->value;
    r.share(name, 100.0 * worse, a->value, "%");
  }
  for (const auto& d : per_layer_metrics())
    if (!r.find(d.name)) r.set(d.name, 0.0, d.unit, "n/a on this workload");
  print_metric_lines("traced", r);
  if (!complete(r, per_layer_metrics())) return 2;

  const std::string spans = (std::filesystem::path(opt.out_dir) /
                             ("spans-" + opt.workload + "-" +
                              std::to_string(opt.seed) + ".jsonl"))
                                .string();
  if (std::FILE* f = std::fopen(spans.c_str(), "w")) {
    size_t total = 0;
    for (size_t t = 0; t < traced.logs.size(); ++t) {
      traced.logs[t].write_jsonl(f, static_cast<int>(t));
      total += traced.logs[t].size();
    }
    std::fclose(f);
    std::printf("spans %zu written to %s\n", total, spans.c_str());
  }
  const bool ok = plain.rep.mismatches() == 0 && r.mismatches() == 0;
  print_json(r, per_layer_metrics(), ok, plain.rep.attempted() + r.attempted(),
             plain.rep.failed() + r.failed());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
