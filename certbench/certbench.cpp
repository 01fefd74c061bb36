// certbench: the certificate-job benchmark (METRICS.md documents every
// metric, workload and baseline).
//
//   certbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// A job is certificate_tool's generate + verify of one Section 4 chain;
// each half runs in a fresh child process (child.hpp) so that it starts
// cold and its peak RSS is its own. After a set-up self-check (a good and
// a tampered job, of which exactly the tampered one must fail) the run
// repeats jobs for about `--seconds`, checks every job's output and prints
// a summary, then one JSON result line:
//
//   --trace 0  end-to-end metrics (no spans recorded);
//   --trace 1  per-layer metrics from traced jobs, interleaved with
//              untraced jobs so the tracing overhead is measured in the
//              same run, plus microbenchmarks on the run's certificate.
//
// The chain is a deterministic function of (algorithm, Δ): the seed is
// recorded and passed nowhere. Any failed job makes the exit status 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "child.hpp"
#include "jobs.hpp"
#include "trace.hpp"

namespace certbench {
namespace {

constexpr unsigned kChildTimeoutS = 150;
constexpr int kSelfCheckDelta = 6;
constexpr double kMicroSeconds = 0.4;

struct Workload {
  std::string name;
  std::string algorithm;
  int delta = 0;
  bool pool = false;  ///< global pool of min(nproc, 4) threads, else 1
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"seq-d18", "seq", 18, false},
      {"po-d14", "po", 14, false},
      {"seq-d18-pool", "seq", 18, true},
      // Smoke sizes: every check and every span in about a second.
      {"seq-d6", "seq", 6, false},
      {"po-d6", "po", 6, false},
      {"seq-d6-pool", "seq", 6, true},
  };
  return all;
}

// Content checksum (jobs.hpp) of the certificate for each (algorithm, Δ)
// the benchmark runs. The chain is the same across thread counts and runs,
// so every job of a run, and seq-d18 and seq-d18-pool, must all match one
// entry. The checksum covers what the certificate certifies, not its text,
// so a change of the on-disk format keeps these values.
std::uint64_t expected_checksum(const std::string& algorithm, int delta) {
  static const std::map<std::pair<std::string, int>, std::uint64_t> table = {
      {{"seq", 6}, 0x37c0c52ea8bb07c0ULL},
      {{"po", 6}, 0xe8d0768664f56f1eULL},
      {{"seq", 18}, 0xbc46ddc8d5fe65a7ULL},
      {{"po", 14}, 0x7a29bc563e225042ULL},
  };
  return table.at({algorithm, delta});
}

int pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

struct JobOutcome {
  std::vector<std::string> failures;  ///< empty iff the job passed
  Record gen, ver;
  double gen_rss_mb = 0, ver_rss_mb = 0;
  std::uint64_t bytes = 0, checksum = 0;
  bool traced = false;
};

std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

// Runs both halves and applies every output check: no throw, validator
// accepts, radius Δ−2, zero ball-key collisions, expected content.
JobOutcome run_job(const JobSpec& spec) {
  JobOutcome out;
  out.traced = spec.traced;
  ChildResult gen = run_in_child([&] { return generate_half(spec); },
                                 kChildTimeoutS);
  out.gen_rss_mb = gen.max_rss_mb;
  if (!gen.ok) {
    out.failures.push_back("generate " + gen.status + ": " +
                           first_line(gen.output));
    return out;
  }
  out.gen = Record::parse(gen.output);
  out.bytes = std::filesystem::file_size(spec.cert_path);

  ChildResult ver = run_in_child([&] { return verify_half(spec); },
                                 kChildTimeoutS);
  out.ver_rss_mb = ver.max_rss_mb;
  if (!ver.ok) {
    out.failures.push_back("verify " + ver.status + ": " +
                           first_line(ver.output));
    return out;
  }
  out.ver = Record::parse(ver.output);
  out.checksum = static_cast<std::uint64_t>(out.ver.get("content_hi")) << 32 |
                 static_cast<std::uint64_t>(out.ver.get("content_lo"));

  const int radius = spec.delta - 2;
  if (out.ver.get("valid") != 1) {
    out.failures.push_back("validator rejected the certificate");
  }
  if (out.gen.get("radius") != radius || out.ver.get("radius") != radius) {
    out.failures.push_back("certified radius is not delta-2");
  }
  if (out.gen.get("bs.collisions") != 0 || out.ver.get("bs.collisions") != 0) {
    out.failures.push_back("ball-key collisions");
  }
  const std::uint64_t expected = expected_checksum(spec.algorithm, spec.delta);
  if (out.checksum != expected) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "certificate content checksum %016llx, expected %016llx",
                  static_cast<unsigned long long>(out.checksum),
                  static_cast<unsigned long long>(expected));
    out.failures.push_back(buf);
  }
  return out;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

// The one count of attempted and failed jobs, for set-up and timed jobs.
Tally tally(const std::vector<JobOutcome>& jobs) {
  Tally t;
  for (const JobOutcome& j : jobs) {
    ++t.attempted;
    if (!j.failures.empty()) ++t.failed;
  }
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Median over jobs of f(job).
template <class F>
double median_of(const std::vector<const JobOutcome*>& jobs, F&& f) {
  std::vector<double> v;
  for (const JobOutcome* j : jobs) v.push_back(f(*j));
  return median(v);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

// Per-layer metrics from the traced jobs (medians over jobs), the tracing
// overhead against the untraced jobs of the same run, and the micros.
std::vector<Metric> layer_metrics(const std::vector<JobOutcome>& jobs,
                                  const Record& micro) {
  std::vector<const JobOutcome*> traced, plain;
  for (const JobOutcome& j : jobs) {
    if (!j.failures.empty()) continue;
    (j.traced ? traced : plain).push_back(&j);
  }
  auto gen_total = [](const JobOutcome& j, const char* name) {
    return total_ms_by_name(j.gen.spans)[name];
  };
  auto gen_self = [](const JobOutcome& j, const char* name) {
    return self_ms_by_name(j.gen.spans)[name];
  };
  auto ver_total = [](const JobOutcome& j, const char* name) {
    return total_ms_by_name(j.ver.spans)[name];
  };
  auto ver_self = [](const JobOutcome& j, const char* name) {
    return self_ms_by_name(j.ver.spans)[name];
  };
  auto gen = [&](const char* key) {
    return median_of(traced, [&](const JobOutcome& j) { return j.gen.get(key); });
  };
  auto both = [&](const char* key) {
    return median_of(traced, [&](const JobOutcome& j) {
      return j.gen.get(key) + j.ver.get(key);
    });
  };
  auto ratio = [&](const char* num, const char* den) {
    const double d = both(den);
    return d > 0 ? both(num) / d : 0.0;
  };
  auto span = [&](auto&& f, const char* name) {
    return median_of(traced, [&](const JobOutcome& j) { return f(j, name); });
  };
  const double traced_gen_ms = median_of(
      traced, [](const JobOutcome& j) { return j.gen.get("wall_s") * 1e3; });
  const double traced_ver_ms = median_of(
      traced, [](const JobOutcome& j) { return j.ver.get("wall_s") * 1e3; });
  const double plain_gen_ms = median_of(
      plain, [](const JobOutcome& j) { return j.gen.get("wall_s") * 1e3; });
  const double plain_ver_ms = median_of(
      plain, [](const JobOutcome& j) { return j.ver.get("wall_s") * 1e3; });
  const double sim_ms = span(gen_total, "simulator");
  const double read_ms = span(ver_total, "certificate_io.read");
  const double bytes = median_of(
      traced, [](const JobOutcome& j) { return static_cast<double>(j.bytes); });

  return {
      {"adversary.ms", span(gen_total, "adversary"), "ms"},
      {"adversary.self_ms", span(gen_self, "adversary"), "ms"},
      {"adversary.plan_ms", span(gen_total, "adversary.plan"), "ms"},
      {"adversary.combine_self_ms", span(gen_self, "adversary.combine"), "ms"},
      {"adversary.steps", gen("steps"), "count"},
      {"adversary.gg_cases", gen("gg_cases"), "count"},
      {"adversary.hh_cases", gen("hh_cases"), "count"},
      {"adversary.propagation_steps", gen("propagation_steps"), "count"},
      {"simulator.ms", sim_ms, "ms"},
      {"simulator.runs", gen("sim.runs"), "count"},
      {"simulator.rounds", gen("sim.rounds"), "count"},
      {"simulator.messages", gen("sim.messages"), "count"},
      {"simulator.message_bytes", gen("sim.message_bytes"), "bytes"},
      {"simulator.msgs_per_s", micro.get("micro.msgs_per_s"), "1/s"},
      {"ball_store.p1_ms", span(gen_total, "ball_store.p1"), "ms"},
      {"ball_store.key_queries", both("bs.key_queries"), "count"},
      {"ball_store.memo_hit_rate", ratio("bs.memo_hits", "bs.key_queries"),
       "ratio"},
      {"ball_store.intern_hit_rate",
       ratio("bs.intern_hits", "bs.intern_lookups"), "ratio"},
      {"ball_store.intern_resets", both("bs.intern_resets"), "count"},
      {"ball_store.bytes", median_of(traced,
                                     [](const JobOutcome& j) {
                                       return std::max(j.gen.get("bs.bytes"),
                                                       j.ver.get("bs.bytes"));
                                     }),
       "bytes"},
      {"ball_store.collisions", both("bs.collisions"), "count"},
      {"ball_store.keys_per_s", micro.get("micro.keys_per_s"), "1/s"},
      {"validator.ms", span(ver_total, "validator"), "ms"},
      {"validator.sim_ms", span(ver_total, "validator.sim"), "ms"},
      {"validator.p1_ms", span(ver_total, "validator.p1"), "ms"},
      {"validator.levels", median_of(traced,
                                     [](const JobOutcome& j) {
                                       return j.ver.get("levels");
                                     }),
       "count"},
      {"certificate_io.write_ms", span(gen_total, "certificate_io.write"),
       "ms"},
      {"certificate_io.read_ms", read_ms, "ms"},
      {"certificate_io.read_mb_per_s",
       read_ms > 0 ? bytes / 1e6 / (read_ms / 1e3) : 0.0, "MB/s"},
      {"rational.ops_per_s", micro.get("micro.rational_ops_per_s"), "1/s"},
      {"job.cpu_s", both("cpu_s"), "s"},
      {"thread_pool.cpu_per_wall", ratio("cpu_s", "wall_s"), "ratio"},
      {"trace.generate_ms", traced_gen_ms, "ms"},
      {"trace.verify_ms", traced_ver_ms, "ms"},
      {"trace.untraced_generate_ms", plain_gen_ms, "ms"},
      {"trace.untraced_verify_ms", plain_ver_ms, "ms"},
      {"trace.generate_overhead_ms", traced_gen_ms - plain_gen_ms, "ms"},
      {"trace.verify_overhead_ms", traced_ver_ms - plain_ver_ms, "ms"},
      {"trace.generate_unattributed_ms", span(gen_self, "generate"), "ms"},
      {"trace.verify_unattributed_ms", span(ver_self, "verify"), "ms"},
  };
}

// Writes every traced span of the run as JSON lines, once, at the end.
void write_spans(const std::string& path, const std::vector<JobOutcome>& jobs) {
  std::ofstream out(path);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const auto& [half, rec] :
         {std::pair<const char*, const Record*>{"generate", &jobs[j].gen},
          std::pair<const char*, const Record*>{"verify", &jobs[j].ver}}) {
      for (std::size_t i = 0; i < rec->spans.size(); ++i) {
        const Span& s = rec->spans[i];
        out << "{\"job\": " << j << ", \"half\": \"" << half
            << "\", \"id\": " << i << ", \"parent\": " << s.parent
            << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << "}\n";
      }
    }
  }
}

int usage() {
  std::cerr << "usage: certbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int run(int argc, char** argv) {
  std::string workload_name, workdir = ".bench_build/certbench-work";
  std::string seed = "0";
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--workdir" && has_value) {
      workdir = argv[++i];
    } else {
      return usage();
    }
  }
  const auto wl = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const Workload& w) { return w.name == workload_name; });
  // The seed names the run's files, so it must be a plain number.
  const bool seed_ok = !seed.empty() && seed.size() <= 20 &&
                       std::all_of(seed.begin(), seed.end(), [](char c) {
                         return c >= '0' && c <= '9';
                       });
  if (wl == workloads().end() || !seed_ok || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  std::filesystem::create_directories(workdir);
  const std::string tag = wl->name + "-seed" + seed;

  JobSpec spec;
  spec.algorithm = wl->algorithm;
  spec.delta = wl->delta;
  spec.threads = wl->pool ? pool_threads() : 1;
  spec.cert_path = workdir + "/" + tag + ".cert";
  std::cerr << "certbench: workload " << wl->name << " (" << wl->algorithm
            << ", delta " << wl->delta << ", " << spec.threads
            << " thread(s)), seed " << seed << " (recorded, unused), "
            << seconds << " s, trace " << trace << "\n";

  // Set-up: a good and a tampered job at the self-check Δ with the
  // workload's algorithm and pool, counted like the timed jobs. Exactly one
  // may fail, the tampered one, and the validator must be what rejected it:
  // this proves on every run that `failed` counts real failures.
  const std::int64_t setup_t0 = now_ns();
  JobSpec check = spec;
  check.delta = kSelfCheckDelta;
  check.cert_path = workdir + "/" + tag + ".selfcheck.cert";
  std::vector<JobOutcome> self_check;
  self_check.push_back(run_job(check));
  check.tamper = true;
  self_check.push_back(run_job(check));
  std::remove(check.cert_path.c_str());
  const double setup_s = static_cast<double>(now_ns() - setup_t0) / 1e9;
  const Tally setup = tally(self_check);
  const std::vector<std::string>& bad = self_check.back().failures;
  const bool rejected =
      std::find(bad.begin(), bad.end(), "validator rejected the certificate") !=
      bad.end();
  if (setup.failed != 1 || !rejected) {
    for (const std::string& f : self_check.front().failures) {
      std::cerr << "certbench: self-check job failed: " << f << "\n";
    }
    if (!rejected) {
      std::cerr << "certbench: tampered certificate was not rejected\n";
    }
    return 1;
  }

  // Jobs run back to back while the next one, at the median job time so
  // far, still ends within `seconds`; a slower machine gets fewer samples,
  // not a longer run. Traced runs alternate untraced and traced jobs,
  // starting untraced.
  std::vector<JobOutcome> jobs;
  std::vector<double> job_s;
  const std::int64_t start = now_ns();
  const std::size_t min_jobs = trace ? 2 : 1;
  while (jobs.size() < min_jobs ||
         static_cast<double>(now_ns() - start) / 1e9 + median(job_s) <=
             seconds) {
    spec.traced = trace == 1 && jobs.size() % 2 == 1;
    const std::int64_t t0 = now_ns();
    jobs.push_back(run_job(spec));
    job_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  // Every passing job matched the one expected content checksum, which is
  // the determinism contract across the run's jobs and across workloads.
  const Tally timed = tally(jobs);
  std::size_t attempted = timed.attempted;
  std::size_t failed = timed.failed;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::fprintf(stderr,
                 "certbench: job %zu%s: generate %.4f s %.1f MiB, verify "
                 "%.4f s %.1f MiB\n",
                 i, jobs[i].traced ? " (traced)" : "",
                 jobs[i].gen.get("wall_s"), jobs[i].gen_rss_mb,
                 jobs[i].ver.get("wall_s"), jobs[i].ver_rss_mb);
    for (const std::string& f : jobs[i].failures) {
      std::cerr << "certbench: job " << i << " failed: " << f << "\n";
    }
  }

  std::vector<const JobOutcome*> passed;
  for (const JobOutcome& j : jobs) {
    if (j.failures.empty()) passed.push_back(&j);
  }
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", setup_s, "s"},
        {"generate_s",
         median_of(passed,
                   [](const JobOutcome& j) { return j.gen.get("wall_s"); }),
         "s"},
        {"verify_s",
         median_of(passed,
                   [](const JobOutcome& j) { return j.ver.get("wall_s"); }),
         "s"},
        {"generate_rss_mb",
         median_of(passed, [](const JobOutcome& j) { return j.gen_rss_mb; }),
         "MiB"},
        {"verify_rss_mb",
         median_of(passed, [](const JobOutcome& j) { return j.ver_rss_mb; }),
         "MiB"},
        {"cert_bytes",
         median_of(passed,
                   [](const JobOutcome& j) {
                     return static_cast<double>(j.bytes);
                   }),
         "bytes"},
        {"pass_rate",
         static_cast<double>(attempted - failed) /
             static_cast<double>(attempted),
         "ratio"},
    };
  } else {
    spec.traced = false;
    ChildResult micro = run_in_child(
        [&] { return micro_half(spec, kMicroSeconds); }, kChildTimeoutS);
    ++attempted;  // the microbenchmark pass is one more checked operation
    if (!micro.ok) {
      std::cerr << "certbench: microbenchmarks failed: "
                << first_line(micro.output) << "\n";
      ++failed;
    }
    metrics = layer_metrics(jobs, Record::parse(micro.output));
    write_spans(workdir + "/" + tag + ".spans.jsonl", jobs);
  }
  std::remove(spec.cert_path.c_str());

  std::cout << "self-check: " << setup.attempted << " attempted, "
            << setup.failed << " failed (the tampered job, as required)\n";
  std::cout << "workload " << wl->name << ": " << attempted
            << " attempted, " << failed << " failed, fail_rate "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << ", " << passed.size() << " samples per median\n";
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace certbench

int main(int argc, char** argv) {
  try {
    return certbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "certbench: " << e.what() << "\n";
    return 1;
  }
}
