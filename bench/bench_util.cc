#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>

namespace microspec::benchutil {

namespace {

double EnvDouble(const char* name, double dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr) return dflt;
  double x = std::atof(v);
  return x > 0 ? x : dflt;
}

int EnvInt(const char* name, int dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr) return dflt;
  int x = std::atoi(v);
  return x > 0 ? x : dflt;
}

}  // namespace

BenchEnv::BenchEnv() {
  sf = EnvDouble("MICROSPEC_SF", 0.02);
  reps = EnvInt("MICROSPEC_REPS", 3);
  // Default to the native backend when a C compiler exists: it is the
  // paper's own mechanism (gcc-compiled relation bees). The program backend
  // remains the portable fallback and can be forced via MICROSPEC_BACKEND.
  const char* b = std::getenv("MICROSPEC_BACKEND");
  if (b != nullptr) {
    backend = std::string(b) == "native" ? bee::BeeBackend::kNative
                                         : bee::BeeBackend::kProgram;
  } else {
    backend = bee::NativeJit::CompilerAvailable() ? bee::BeeBackend::kNative
                                                  : bee::BeeBackend::kProgram;
  }
  std::mt19937_64 rng(std::random_device{}());
  scratch = "/tmp/microspec_bench_" + std::to_string(rng());
  std::string cmd = "mkdir -p " + scratch;
  MICROSPEC_CHECK(std::system(cmd.c_str()) == 0);
}

BenchEnv::~BenchEnv() {
  std::string cmd = "rm -rf " + scratch;
  (void)std::system(cmd.c_str());
}

std::unique_ptr<Database> OpenBenchDb(const BenchEnv& env,
                                      const std::string& name,
                                      bool enable_bees, bool tuple_bees,
                                      size_t pool_frames,
                                      bool share_query_bees) {
  DatabaseOptions opts;
  opts.dir = env.scratch + "/" + name;
  opts.enable_bees = enable_bees;
  opts.enable_tuple_bees = tuple_bees;
  opts.backend = env.backend;
  opts.buffer_pool_frames = pool_frames;  // default 256 MiB
  opts.share_query_bees = share_query_bees;
  auto res = Database::Open(std::move(opts));
  MICROSPEC_CHECK(res.ok());
  return res.MoveValue();
}

std::unique_ptr<Database> MakeTpchDb(const BenchEnv& env,
                                     const std::string& name,
                                     bool enable_bees, bool tuple_bees,
                                     bool share_query_bees) {
  auto db = OpenBenchDb(env, name, enable_bees, tuple_bees,
                        /*pool_frames=*/32768, share_query_bees);
  MICROSPEC_CHECK(tpch::CreateTpchTables(db.get()).ok());
  MICROSPEC_CHECK(tpch::LoadTpch(db.get(), env.sf).ok());
  // Steady-state harnesses measure the promoted (native) tier; drain the
  // forge so measurement never races a background compile. bench_forge is
  // the one harness that measures the promotion window itself.
  db->QuiesceBees();
  return db;
}

double PaperMeanSeconds(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps + 2; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(end - start).count());
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (size_t i = 1; i + 1 < samples.size(); ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2);
}

void PaperMeanPair(int reps, const std::function<void()>& a,
                   const std::function<void()>& b, double* a_seconds,
                   double* b_seconds) {
  std::vector<double> sa;
  std::vector<double> sb;
  for (int i = 0; i < reps + 2; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    a();
    auto t1 = std::chrono::steady_clock::now();
    b();
    auto t2 = std::chrono::steady_clock::now();
    sa.push_back(std::chrono::duration<double>(t1 - t0).count());
    sb.push_back(std::chrono::duration<double>(t2 - t1).count());
  }
  auto robust_mean = [](std::vector<double>& s) {
    std::sort(s.begin(), s.end());
    double sum = 0;
    for (size_t i = 1; i + 1 < s.size(); ++i) sum += s[i];
    return sum / static_cast<double>(s.size() - 2);
  };
  *a_seconds = robust_mean(sa);
  *b_seconds = robust_mean(sb);
}

std::vector<double> PaperMeanMulti(
    int reps, const std::vector<std::function<void()>>& fns) {
  std::vector<std::vector<double>> samples(fns.size());
  for (int i = 0; i < reps + 2; ++i) {
    for (size_t f = 0; f < fns.size(); ++f) {
      auto t0 = std::chrono::steady_clock::now();
      fns[f]();
      auto t1 = std::chrono::steady_clock::now();
      samples[f].push_back(std::chrono::duration<double>(t1 - t0).count());
    }
  }
  std::vector<double> out;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    double sum = 0;
    for (size_t i = 1; i + 1 < s.size(); ++i) sum += s[i];
    out.push_back(sum / static_cast<double>(s.size() - 2));
  }
  return out;
}

uint64_t RunTpchQuery(Database* db, const SessionOptions& opts, int q) {
  auto ctx = db->MakeContext(opts);
  auto plan = tpch::BuildTpchQuery(q, ctx.get());
  MICROSPEC_CHECK(plan.ok());
  auto rows = CountRows(plan->get());
  MICROSPEC_CHECK(rows.ok());
  return rows.value();
}

uint64_t RunTpchQuery(Database* db, const SessionOptions& opts, int q,
                      int dop) {
  auto ctx = db->MakeContext(opts, dop);
  auto plan = tpch::BuildTpchQuery(q, ctx.get());
  MICROSPEC_CHECK(plan.ok());
  auto rows = CountRows(plan->get());
  MICROSPEC_CHECK(rows.ok());
  return rows.value();
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

BenchReport::BenchReport(std::string bench_name, const BenchEnv& env)
    : name_(std::move(bench_name)),
      sf_(env.sf),
      reps_(env.reps),
      backend_(env.backend == bee::BeeBackend::kNative ? "native"
                                                       : "program") {}

void BenchReport::Add(const std::string& config, const std::string& metric,
                      double value) {
  entries_.push_back(Entry{config, metric, value});
}

void BenchReport::AttachTelemetry(const telemetry::TelemetrySnapshot& snap) {
  telemetry_json_ = snap.ToJson();
}

Status BenchReport::WriteJson(const std::string& path) const {
  std::string out = "{\n";
  out += "  \"bench\": \"" + telemetry::Escape(name_) + "\",\n";
  out += "  \"scale_factor\": " + std::to_string(sf_) + ",\n";
  out += "  \"reps\": " + std::to_string(reps_) + ",\n";
  out += "  \"backend\": \"" + backend_ + "\",\n";
  out += "  \"results\": [\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", entries_[i].value);
    out += "    {\"config\": \"" + telemetry::Escape(entries_[i].config) +
           "\", \"metric\": \"" + telemetry::Escape(entries_[i].metric) +
           "\", \"value\": " + value + "}";
    out += i + 1 < entries_.size() ? ",\n" : "\n";
  }
  out += "  ]";
  if (!telemetry_json_.empty()) {
    // The snapshot serializes itself; embed verbatim (minus trailing \n).
    std::string t = telemetry_json_;
    while (!t.empty() && t.back() == '\n') t.pop_back();
    out += ",\n  \"telemetry\": " + t;
  }
  out += "\n}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return Status::OK();
}

std::string BenchReport::WriteIfRequested(int argc, char** argv) const {
  std::string path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") path = argv[i + 1];
  }
  if (path.empty()) {
    const char* env = std::getenv("BENCH_JSON");
    if (env != nullptr) path = env;
  }
  if (path.empty()) return "";
  Status st = WriteJson(path);
  if (!st.ok()) {
    std::fprintf(stderr, "bench json: %s\n", st.ToString().c_str());
    return "";
  }
  std::printf("\n[json results written to %s]\n", path.c_str());
  return path;
}

void PrintHeader(const std::string& title, const BenchEnv& env) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(scale factor %.3g, %d timed reps, %s backend)\n\n", env.sf,
              env.reps,
              env.backend == bee::BeeBackend::kNative ? "native" : "program");
}

}  // namespace microspec::benchutil
