// drcell_perfbench — one workload run of the end-to-end benchmark.
//
//   drcell_perfbench --workload <paper_train|paper_fleet|city_fleet>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.json>]
//
// Prints one JSON object as its last line: the raw measurements (set-up
// samples, per-step latencies and how many of them each round took, cycles
// and time), the operation counts, the output-check verdict and, with
// --trace 1, the per-layer metrics. The
// wrapper perfbench/run.py turns it into the benchmark's metrics. The pool
// width comes from DRCELL_THREADS (total lanes, read once by the library),
// which run.py sets per workload; the run reports the width it ran at.
// Exits 1 if any output check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "util/thread_pool.h"
#include "workload.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Options& o, std::size_t lanes, const Outcome& r) {
  std::string s = "{\"workload\":" + json_string(o.workload) +
                  ",\"seed\":" + std::to_string(o.seed) +
                  ",\"lanes\":" + std::to_string(lanes) +
                  ",\"trace\":" + (o.trace ? "1" : "0") +
                  ",\"correct\":" + (r.problems.empty() ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) +
                  ",\"rounds\":" + std::to_string(r.rounds) +
                  ",\"cycles\":" + std::to_string(r.cycles) +
                  ",\"run_s\":" + json_number(r.run_s) + ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    s += (i ? "," : "") + json_string(r.problems[i]);
  s += "],\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i)
    s += (i ? "," : "") + json_number(r.setup_s[i]);
  s += "],\"step_ms\":[";
  for (std::size_t i = 0; i < r.step_ms.size(); ++i)
    s += (i ? "," : "") + json_number(r.step_ms[i]);
  s += "],\"round_steps\":[";
  for (std::size_t i = 0; i < r.round_steps.size(); ++i)
    s += (i ? "," : "") + std::to_string(r.round_steps[i]);
  s += "],\"layers\":{";
  for (std::size_t i = 0; i < r.layers.size(); ++i)
    s += (i ? "," : "") + json_string(r.layers[i].first) + ":" +
         json_number(r.layers[i].second);
  s += "},\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i)
    s += (i ? "," : "") + json_string(r.info[i].first) + ":" +
         json_string(r.info[i].second);
  s += "}}";
  std::cout << s << std::endl;
}

int usage(const std::string& why) {
  std::cerr << "drcell_perfbench: " << why << "\n"
            << "usage: drcell_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") o.workload = value;
      else if (key == "--seed") o.seed = std::stoull(value);
      else if (key == "--seconds") o.seconds = std::stod(value);
      else if (key == "--trace") o.trace = std::stoi(value) != 0;
      else if (key == "--trace-out") trace_out = value;
      else return usage("unknown option " + key);
    } catch (const std::exception&) {
      return usage("bad value for " + key);
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");

  std::unique_ptr<perfbench::Workload> workload;
  if (o.workload == "paper_train") workload = perfbench::make_paper_train();
  else if (o.workload == "paper_fleet") workload = perfbench::make_paper_fleet(o.seed);
  else if (o.workload == "city_fleet") workload = perfbench::make_city_fleet(o.seed);
  else return usage("unknown workload '" + o.workload + "'");

  const std::size_t lanes =
      drcell::util::ThreadPool::global().worker_count() + 1;

  Outcome result;
  try {
    result = perfbench::run_workload(*workload, o);
  } catch (const std::exception& e) {
    result.problem(std::string("exception: ") + e.what());
  }
  if (o.trace && !trace_out.empty()) {
    std::ofstream out(trace_out);
    perfbench::Tracer::write_chrome_trace(out);
    if (!out.good()) result.problem("cannot write the trace to " + trace_out);
  }
  for (const auto& p : result.problems) std::cerr << "CHECK FAILED: " << p << "\n";
  print_result(o, lanes, result);
  return result.problems.empty() ? 0 : 1;
}
