// dyckfix benchmark harness: one workload, one run, one JSON result line.
//
//   dyckbench_harness --workload longdoc-del --seed 1 --seconds 10
//                     --trace 0 --daemon PATH/dyckfixd [--revision REV]
//                     [--trace-dir DIR]
//
// Workloads (README.md has the parameters and the reasons):
//   longdoc-del  long documents, deletions metric, dyckfix_context_repair
//   longdoc-sub  long documents, default metric, dyckfix_context_repair
//   corpus-zipf  Zipf draws from a short-document pool,
//                dyckfix_repair_batch_opts with 2 jobs and a cache
//   daemon-edit  keystrokes and snippet repairs against one dyckfixd
//
// Every workload is a closed loop: an untimed warm-up pass whose answers
// are checked in full, then whole rounds of the same operations until
// --seconds have passed, each answer compared with its checked first
// answer (or, for keystrokes, checked in full again). With --trace 1 the
// first half of the time runs the untraced workload and the second half
// the traced layer-by-layer replay (trace_layers.cc).

#include <signal.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "daemon_client.h"
#include "gen.h"
#include "include/dyckfix.h"
#include "trace_layers.h"

namespace dyckbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload parameters (README.md, "Inputs").

// Top-level blocks per document; each corruption sits in its own block.
constexpr int kLongdocBlocks = 4;
constexpr int kPoolBlocks = 8;
// A round of an odd multiple of 5 documents puts the pooled p50 and p90
// in the middle of a document class rather than between two.
// longdoc-del: three documents per size 2^16..2^20 with kDelDeleted[size]
// opens deleted. Balanced documents cost less than unbalanced ones of the
// same size (0.8-0.9x), so they sit where they cannot reach the 2^18
// group (ranks 7-9, the median) or split the top 2^20 pair (the p90).
constexpr int kDelMinLog = 16;
constexpr int kDelMaxLog = 20;
constexpr int kDelDocsPerSize = 3;
constexpr int kDelDeleted[kDelMaxLog - kDelMinLog + 1][kDelDocsPerSize] = {
    {0, 1, 2}, {0, 3, 4}, {2, 2, 2}, {1, 3, 4}, {0, 1, 3}};
// longdoc-sub: five documents per size 2^14..2^18, k = 1..4 corruptions.
constexpr int kSubMinLog = 14;
constexpr int kSubMaxLog = 18;
constexpr int kSubDocsPerSize = 5;
constexpr int kSubMaxCorruptions = 4;
// corpus-zipf.
constexpr int kPoolDocs = 2048;
constexpr int kPoolMinLog = 6;
constexpr int kPoolMaxLog = 13;
constexpr int kPoolMaxCorruptions = 8;
constexpr double kZipfExponent = 1.0;
constexpr int kBatchDocs = 64;
constexpr int kScheduleRequests = 35 * kBatchDocs;  // 35 batch calls per round
constexpr int kBatchJobs = 2;
constexpr int64_t kCorpusCacheBytes = int64_t{4} << 20;
constexpr int64_t kCubicMaxTokens = 256;
// daemon-edit.
constexpr int kEditorMinLog = 16;
constexpr int kEditorMaxLog = 18;
constexpr int kSnippetDocs = 512;
constexpr int kSnippetMinLog = 6;
constexpr int kSnippetMaxLog = 10;
constexpr int kSnippetMaxCorruptions = 4;
constexpr int kTypedPerRound = 4;  // typed, then erased in reverse order
constexpr int kDaemonWorkers = 2;
constexpr int64_t kDaemonCacheBytes = int64_t{64} << 20;

// Seed streams: each generated object draws from its own stream.
constexpr uint64_t kStreamLongdoc = 1000;
constexpr uint64_t kStreamPool = 100000;
constexpr uint64_t kStreamSchedule = 2;
constexpr uint64_t kStreamDeal = 400000;  // + round
constexpr uint64_t kStreamEditor = 3000;
constexpr uint64_t kStreamSnippet = 200000;
constexpr uint64_t kStreamKeys = 300000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string daemon;
  std::string revision = "unknown";
  std::string trace_dir;
};

struct Run {
  bool correct = true;
  std::string error;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> latency_ms;
  int64_t ops = 0;
  double busy_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double setup_s = 0;
  std::string simd = "unknown";
  LayerMetrics layers;
  // Per timed round: throughput over busy time and CPU per operation.
  std::vector<double> round_ops_per_s;
  std::vector<double> round_cpu_ms_per_op;
  int64_t mark_ops = 0;
  double mark_busy = 0;
  double mark_cpu = 0;

  /// Closes a timed round, from the totals' growth since the last call.
  void EndRound() {
    const double ops_delta = static_cast<double>(ops - mark_ops);
    if (ops_delta > 0 && busy_s > mark_busy) {
      round_ops_per_s.push_back(ops_delta / (busy_s - mark_busy));
      round_cpu_ms_per_op.push_back((cpu_s - mark_cpu) * 1e3 / ops_delta);
    }
    mark_ops = ops;
    mark_busy = busy_s;
    mark_cpu = cpu_s;
  }

  void Wrong(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void Failed(const std::string& why) {
    ++failed;
    if (error.empty()) error = "failed: " + why;
  }
};

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Milliseconds to sort 2^20 random 64-bit keys: a program-independent
/// reference for how fast this machine's memory system is right now, so a
/// slow run can be told from a slow program.
double ReferenceSortMs() {
  Rng rng(1);
  std::vector<uint64_t> keys(size_t{1} << 20);
  for (uint64_t& k : keys) k = rng.Next();
  const Clock::time_point start = Clock::now();
  std::sort(keys.begin(), keys.end());
  return Since(start) * 1e3;
}

double Mean(const std::vector<double>& v) {
  double total = 0;
  for (const double x : v) total += x;
  return v.empty() ? 0 : total / static_cast<double>(v.size());
}

/// Linear-interpolated percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The vector-kernel backend the library's telemetry reports.
std::string SimdBackend() {
  std::string backend = "unknown";
  char* out = nullptr;
  if (dyckfix_repair("()", DYCKFIX_METRIC_DELETIONS, DYCKFIX_STYLE_MINIMAL,
                     &out, nullptr) == DYCKFIX_OK) {
    dyckfix_telemetry telemetry;
    if (dyckfix_last_telemetry(&telemetry) == DYCKFIX_OK) {
      backend = telemetry.simd_backend;
    }
  }
  dyckfix_string_free(out);
  return backend;
}

/// Records a traced run's checking failures and writes its spans.
void FinishTrace(const Args& args, const Tracer& tracer,
                 const std::string& error, Run* run) {
  if (!error.empty()) run->Wrong("traced run: " + error);
  if (!args.trace_dir.empty()) {
    tracer.Write(args.trace_dir + "/" + args.workload + "-" +
                 std::to_string(args.seed) + ".spans.jsonl");
  }
}

/// Size of pool document `i`: even, log-uniform in [2^min_log, 2^max_log]
/// along the golden-ratio sequence, so every seed yields the same size mix
/// and neighbouring popularity ranks get unrelated sizes.
int64_t PoolDocSize(int64_t i, int min_log, int max_log) {
  const double u = std::fmod(0.5 + static_cast<double>(i) * 0.6180339887498949, 1.0);
  const double e = min_log + (max_log - min_log) * u;
  return std::max<int64_t>(2, static_cast<int64_t>(std::pow(2.0, e)) & ~int64_t{1});
}

Document MixedDoc(Rng& rng, int64_t n, int blocks, int k, int first_kind) {
  Document doc;
  const std::string brackets =
      CorruptMixed(rng, BalancedWalk(rng, n, blocks), blocks, k, first_kind);
  doc.tokens = static_cast<int64_t>(brackets.size());
  doc.planted = k;
  doc.text = AddFiller(rng, brackets);
  return doc;
}

/// `draws` requests over pool indices 0..n-1 in which index r appears
/// round(draws * CDF(r)) - round(draws * CDF(r - 1)) times for the Zipf law
/// P(r) ~ 1/(r+1)^s (systematic sampling: the same multiset for every
/// seed), in an order shuffled by `seed`. Popularity rank r is pool doc r.
std::vector<int64_t> ZipfSchedule(uint64_t seed, int64_t n, int64_t draws) {
  const Zipf zipf(n, kZipfExponent);
  std::vector<int64_t> schedule;
  int64_t issued = 0;
  for (int64_t r = 0; r < n; ++r) {
    const int64_t upto = std::llround(static_cast<double>(draws) * zipf.Cdf(r));
    for (; issued < upto; ++issued) schedule.push_back(r);
  }
  Rng rng(seed);
  for (size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1], schedule[rng.Below(i)]);
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// longdoc-del / longdoc-sub through dyckfix_context_repair.

/// Round `round` of a longdoc workload: the same (size, k) classes every
/// round, fresh content from the seed.
std::vector<Document> LongdocRound(uint64_t seed, bool substitutions,
                                   int64_t round) {
  std::vector<Document> docs;
  const int min_log = substitutions ? kSubMinLog : kDelMinLog;
  const int max_log = substitutions ? kSubMaxLog : kDelMaxLog;
  const int per_size = substitutions ? kSubDocsPerSize : kDelDocsPerSize;
  for (int lg = min_log; lg <= max_log; ++lg) {
    for (int j = 0; j < per_size; ++j) {
      Rng rng(SubSeed(seed, kStreamLongdoc + static_cast<uint64_t>(round) * 1024 +
                                static_cast<uint64_t>(16 * lg + j)));
      const int64_t n = int64_t{1} << lg;
      if (substitutions) {
        const int k = 1 + (lg + j) % kSubMaxCorruptions;
        docs.push_back(MixedDoc(rng, n, kLongdocBlocks, k,
                                /*first_kind=*/(lg + j) % 4));
        continue;
      }
      const int k = kDelDeleted[lg - min_log][j];
      const std::string brackets = DeleteOpens(
          rng, BalancedWalk(rng, n, kLongdocBlocks), kLongdocBlocks, k);
      Document doc;
      doc.tokens = static_cast<int64_t>(brackets.size());
      doc.planted = k;
      doc.deleted_opens = k;
      doc.text = AddFiller(rng, brackets);
      docs.push_back(std::move(doc));
    }
  }
  return docs;
}

void RunLongdoc(const Args& args, bool substitutions, Run* run) {
  int64_t round = 0;
  std::vector<Document> docs = LongdocRound(args.seed, substitutions, round);
  const std::vector<Document> first_round = docs;
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.metric =
      substitutions ? DYCKFIX_METRIC_SUBSTITUTIONS : DYCKFIX_METRIC_DELETIONS;
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;

  const Clock::time_point setup_start = Clock::now();
  dyckfix_context* ctx = dyckfix_context_create();

  // One request, its answer checked in full after the clock stops.
  const auto request = [&](const Document& doc, bool timed) {
    char* out = nullptr;
    long long distance = -1;
    int degraded = 0;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    const int code = dyckfix_context_repair(ctx, doc.text.c_str(), &opts,
                                            &out, &distance, &degraded);
    const double wall = Since(start);
    const double cpu = ProcessCpuSeconds() - cpu0;
    ++run->attempted;
    if (code != DYCKFIX_OK) {
      run->Failed(std::string("dyckfix_context_repair: ") +
                  dyckfix_context_last_error(ctx));
      return;
    }
    const std::string_view text(out);
    std::string why =
        CheckRepair(doc.text, text, distance, substitutions, doc.planted);
    if (why.empty() && degraded != 0) why = "degraded answer";
    if (why.empty() && !substitutions && distance != doc.deleted_opens) {
      why = "distance " + std::to_string(distance) + " != " +
            std::to_string(doc.deleted_opens) + " deleted opens";
    }
    if (why.empty() && distance == 0 && text != doc.text) {
      why = "balanced document changed";
    }
    if (!why.empty()) {
      run->Wrong(std::to_string(doc.tokens) + "-token document: " + why);
    }
    dyckfix_string_free(out);
    if (timed) {
      run->latency_ms.push_back(wall * 1e3);
      run->busy_s += wall;
      run->cpu_s += cpu;
      ++run->ops;
    }
  };

  for (size_t i = 0; i < docs.size(); ++i) {
    request(docs[i], /*timed=*/false);
    if (i == 0) run->setup_s = Since(setup_start);
  }
  run->simd = SimdBackend();
  const Clock::time_point timed = Clock::now();
  while (Since(timed) < seconds) {
    docs = LongdocRound(args.seed, substitutions, ++round);
    for (const Document& doc : docs) request(doc, /*timed=*/true);
    run->EndRound();
  }
  dyckfix_context_free(ctx);

  if (args.trace) {
    Tracer tracer;
    std::string error;
    run->layers =
        TraceLongdocs(first_round, substitutions, seconds, &tracer, &error);
    FinishTrace(args, tracer, error, run);
  }
  run->peak_rss_mb = SelfPeakRssMb();
}

// ---------------------------------------------------------------------------
// corpus-zipf through dyckfix_repair_batch_opts.

std::vector<Document> CorpusPool(uint64_t seed) {
  std::vector<Document> pool;
  for (int i = 0; i < kPoolDocs; ++i) {
    Rng rng(SubSeed(seed, kStreamPool + i));
    pool.push_back(MixedDoc(rng, PoolDocSize(i, kPoolMinLog, kPoolMaxLog),
                            kPoolBlocks, i % (kPoolMaxCorruptions + 1),
                            /*first_kind=*/i % 4));
  }
  return pool;
}

/// Deals `requests` into batches of kBatchDocs so that every batch carries
/// the same cost mix. A request's estimated cost is tokens * (k + 1)^3
/// divided by its document's request count (repeats are cache hits);
/// requests sorted by it go to batches in snake order, then batch order and
/// the order inside each batch are shuffled by `seed`.
std::vector<int64_t> BatchedSchedule(uint64_t seed,
                                     const std::vector<Document>& pool,
                                     std::vector<int64_t> requests) {
  std::vector<int64_t> count(pool.size(), 0);
  for (const int64_t id : requests) ++count[static_cast<size_t>(id)];
  const auto cost = [&](int64_t id) {
    const Document& doc = pool[static_cast<size_t>(id)];
    const double k1 = doc.planted + 1;
    return static_cast<double>(doc.tokens) * k1 * k1 * k1 /
           static_cast<double>(count[static_cast<size_t>(id)]);
  };
  std::stable_sort(requests.begin(), requests.end(),
                   [&](int64_t a, int64_t b) { return cost(a) > cost(b); });
  const size_t batches = requests.size() / kBatchDocs;
  std::vector<std::vector<int64_t>> dealt(batches);
  for (size_t i = 0; i < batches * kBatchDocs; ++i) {
    const size_t lap = i / batches;
    const size_t slot = i % batches;
    dealt[lap % 2 == 0 ? slot : batches - 1 - slot].push_back(requests[i]);
  }
  Rng rng(seed);
  for (size_t i = batches; i > 1; --i) std::swap(dealt[i - 1], dealt[rng.Below(i)]);
  std::vector<int64_t> schedule;
  for (std::vector<int64_t>& batch : dealt) {
    for (size_t i = batch.size(); i > 1; --i) {
      std::swap(batch[i - 1], batch[rng.Below(i)]);
    }
    schedule.insert(schedule.end(), batch.begin(), batch.end());
  }
  return schedule;
}

void RunCorpus(const Args& args, Run* run) {
  const std::vector<Document> pool = CorpusPool(args.seed);
  // Every round serves the same multiset of requests, dealt into batches
  // afresh, so the cache's steady state does not hang on one order.
  const std::vector<int64_t> requests = ZipfSchedule(
      SubSeed(args.seed, kStreamSchedule), kPoolDocs, kScheduleRequests);
  int64_t round = 0;
  std::vector<int64_t> schedule =
      BatchedSchedule(SubSeed(args.seed, kStreamDeal), pool, requests);
  const std::vector<int64_t> first_schedule = schedule;
  dyckfix_options opts;
  dyckfix_options_init(&opts);
  opts.cache_bytes = kCorpusCacheBytes;
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;

  std::vector<bool> seen(pool.size(), false);
  std::vector<uint64_t> digests(pool.size());
  std::vector<long long> distances(pool.size());
  std::vector<const char*> texts(kBatchDocs);

  // One batch call over schedule[b, b + kBatchDocs).
  const auto batch = [&](size_t b, bool timed) {
    for (int i = 0; i < kBatchDocs; ++i) {
      texts[i] = pool[schedule[b + i]].text.c_str();
    }
    char** outs = nullptr;
    int* codes = nullptr;
    long long* dists = nullptr;
    int* degraded = nullptr;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point start = Clock::now();
    const int code = dyckfix_repair_batch_opts(texts.data(), kBatchDocs, &opts,
                                               kBatchJobs, 0, &outs, &codes,
                                               &dists, &degraded);
    const double wall = Since(start);
    const double cpu = ProcessCpuSeconds() - cpu0;
    run->attempted += kBatchDocs;
    if (code != DYCKFIX_OK) {
      run->failed += kBatchDocs - 1;
      run->Failed(std::string("dyckfix_repair_batch_opts: ") +
                  dyckfix_last_error());
      return;
    }
    for (int i = 0; i < kBatchDocs; ++i) {
      const size_t id = static_cast<size_t>(schedule[b + i]);
      if (codes[i] != DYCKFIX_OK) {
        run->Failed("batch document code " + std::to_string(codes[i]));
        continue;
      }
      const std::string_view text(outs[i]);
      if (!seen[id]) {
        seen[id] = true;
        const Document& doc = pool[id];
        std::string why =
            CheckRepair(doc.text, text, dists[i], true, doc.planted);
        if (why.empty() && degraded[i] != 0) why = "degraded answer";
        if (why.empty() && doc.tokens <= kCubicMaxTokens) {
          const int64_t exact = CubicDistance(Brackets(doc.text), true);
          if (exact != dists[i]) {
            why = "distance " + std::to_string(dists[i]) +
                  " != cubic oracle " + std::to_string(exact);
          }
        }
        if (!why.empty()) run->Wrong("pool doc " + std::to_string(id) + ": " + why);
        digests[id] = Digest(text);
        distances[id] = dists[i];
      } else if (Digest(text) != digests[id] || dists[i] != distances[id]) {
        run->Wrong("pool doc " + std::to_string(id) +
                   ": repeat differs from its first answer");
      }
    }
    dyckfix_batch_free(outs, codes, dists, kBatchDocs);
    dyckfix_batch_free(nullptr, degraded, nullptr, 0);
    if (timed) {
      run->latency_ms.push_back(wall * 1e3);
      run->busy_s += wall;
      run->cpu_s += cpu;
      run->ops += kBatchDocs;
    }
  };

  const Clock::time_point setup_start = Clock::now();
  for (size_t b = 0; b + kBatchDocs <= schedule.size(); b += kBatchDocs) {
    batch(b, /*timed=*/false);
    if (b == 0) run->setup_s = Since(setup_start);
  }
  const Clock::time_point timed = Clock::now();
  while (Since(timed) < seconds) {
    schedule = BatchedSchedule(
        SubSeed(args.seed, kStreamDeal + static_cast<uint64_t>(++round)), pool,
        requests);
    for (size_t b = 0; b + kBatchDocs <= schedule.size(); b += kBatchDocs) {
      batch(b, /*timed=*/true);
    }
    run->EndRound();
  }
  run->simd = SimdBackend();

  if (args.trace) {
    Tracer tracer;
    std::string error;
    run->layers = TraceCorpus(pool, first_schedule, kBatchDocs, kBatchJobs,
                              kCorpusCacheBytes, seconds, &tracer, &error);
    FinishTrace(args, tracer, error, run);
  }
  run->peak_rss_mb = SelfPeakRssMb();
}

// ---------------------------------------------------------------------------
// daemon-edit against one dyckfixd over its stdin and stdout.

/// The client's model of one open editor document.
struct EditorDoc {
  std::string name;
  std::string tokens;          // bracket tokens, as the doc handle keeps them
  std::vector<int64_t> typed;  // positions of outstanding typed opens
};

/// Key/value tokens of a stats message ("received=3 ... out=12B ...").
std::map<std::string, int64_t> ParseStats(const std::string& msg) {
  std::map<std::string, int64_t> stats;
  std::istringstream in(msg);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    std::string value = token.substr(eq + 1);
    if (!value.empty() && value.back() == 'B') value.pop_back();
    stats[token.substr(0, eq)] = std::atoll(value.c_str());
  }
  return stats;
}

void RunDaemon(const Args& args, Run* run) {
  std::vector<std::string> opens;
  std::vector<EditorDoc> editors;
  for (int lg = kEditorMinLog; lg <= kEditorMaxLog; ++lg) {
    Rng rng(SubSeed(args.seed, kStreamEditor + lg));
    const std::string brackets = BalancedWalk(rng, int64_t{1} << lg);
    opens.push_back(AddFiller(rng, brackets));
    editors.push_back(EditorDoc{"d" + std::to_string(lg), brackets, {}});
  }
  std::vector<Document> snippets;
  for (int i = 0; i < kSnippetDocs; ++i) {
    Rng rng(SubSeed(args.seed, kStreamSnippet + i));
    snippets.push_back(
        MixedDoc(rng, PoolDocSize(i, kSnippetMinLog, kSnippetMaxLog),
                 kLongdocBlocks, i % (kSnippetMaxCorruptions + 1),
                 /*first_kind=*/i % 4));
  }
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;

  const Clock::time_point setup_start = Clock::now();
  DaemonClient daemon;
  std::string error;
  if (!daemon.Start({args.daemon, "--workers=" + std::to_string(kDaemonWorkers),
                     "--cache-bytes=" + std::to_string(kDaemonCacheBytes)},
                    &error)) {
    run->Failed(error);
    run->attempted = 1;
    return;
  }
  uint64_t next_id = 1;
  int64_t sent = 0;
  int64_t ok = 0;
  Response response;
  const auto read = [&](Response* r) {
    if (!daemon.Read(r)) return false;
    if (r->status == "ok" || r->status == "bye") ++ok;
    return true;
  };
  for (size_t d = 0; d < editors.size(); ++d) {
    daemon.Send(Frame(next_id++, "open", {{"doc", editors[d].name}}, &opens[d]));
    ++sent;
  }
  for (size_t d = 0; d < editors.size(); ++d) {
    if (!read(&response) || response.status != "ok") {
      run->Failed("open: " + response.status + " " + response.msg);
    }
  }

  std::vector<bool> seen(snippets.size(), false);
  std::vector<uint64_t> digests(snippets.size());
  const std::vector<int64_t> snippet_schedule = ZipfSchedule(
      SubSeed(args.seed, kStreamSchedule), kSnippetDocs, 1 << 16);
  std::vector<Keystroke> keystrokes;
  std::vector<double> keystroke_all_ms;
  std::vector<double> stateless_ms;
  int64_t keystroke_bytes = 0;
  int64_t step = 0;

  // One step: a snippet repair (pooled in the daemon) plus one keystroke on
  // editor `key.doc` (splice + doc repair, inline on the daemon's input
  // thread). The keystroke's latency ends at its doc repair's response.
  const auto do_step = [&](Keystroke key, bool timed) {
    EditorDoc& ed = editors[static_cast<size_t>(key.doc)];
    const size_t snippet = static_cast<size_t>(
        snippet_schedule[static_cast<size_t>(step++) % snippet_schedule.size()]);
    const uint64_t snippet_id = next_id++;
    const uint64_t splice_id = next_id++;
    const uint64_t repair_id = next_id++;
    std::string frames = Frame(snippet_id, "repair", {}, &snippets[snippet].text);
    frames += Frame(splice_id, "splice",
                    {{"doc", ed.name},
                     {"pos", std::to_string(key.pos)},
                     {"erase", std::to_string(key.erase)}},
                    key.insert.empty() ? nullptr : &key.insert);
    frames += Frame(repair_id, "repair", {{"doc", ed.name}, {"metric", "deletions"}});
    sent += 3;
    const Clock::time_point start = Clock::now();
    if (!daemon.Send(frames)) {
      run->Failed("daemon input closed");
      return false;
    }
    double keystroke_s = 0;
    double snippet_s = 0;
    Response splice_r, repair_r, snippet_r;
    for (int got = 0; got < 3; ++got) {
      Response r;
      if (!read(&r)) {
        run->Failed("daemon output closed");
        return false;
      }
      const double at = Since(start);
      if (r.id == snippet_id) {
        snippet_s = at;
        snippet_r = std::move(r);
      } else if (r.id == splice_id) {
        splice_r = std::move(r);
      } else if (r.id == repair_id) {
        keystroke_s = at;
        repair_r = std::move(r);
      }
    }
    const double step_s = Since(start);
    run->attempted += 1;
    // Apply the keystroke to the client's own copy.
    ed.tokens.replace(static_cast<size_t>(key.pos), static_cast<size_t>(key.erase),
                      key.insert);
    keystrokes.push_back(key);
    keystroke_all_ms.push_back(keystroke_s * 1e3);
    for (const Response* r : {&splice_r, &repair_r, &snippet_r}) {
      if (r->status != "ok") {
        run->Failed("response " + std::to_string(r->id) + ": " + r->status +
                    " " + r->msg);
        return true;
      }
    }
    // Keystroke checks.
    std::string why;
    const int64_t distance = std::atoll(repair_r.Field("distance").c_str());
    if (splice_r.Field("tokens") != std::to_string(ed.tokens.size())) {
      why = "splice token count " + splice_r.Field("tokens");
    } else if (distance != static_cast<int64_t>(ed.typed.size())) {
      why = "keystroke distance " + std::to_string(distance) + " != " +
            std::to_string(ed.typed.size()) + " typed opens";
    } else if (!StackBalanced(repair_r.payload) ||
               !ReachableWithin(ed.tokens, repair_r.payload, distance, false)) {
      why = "doc repair is not a balanced deletion of the document";
    }
    // Snippet checks.
    const Document& doc = snippets[snippet];
    const int64_t snippet_distance =
        std::atoll(snippet_r.Field("distance").c_str());
    if (why.empty() && !seen[snippet]) {
      seen[snippet] = true;
      why = CheckRepair(doc.text, snippet_r.payload, snippet_distance, true,
                        doc.planted);
      digests[snippet] = Digest(snippet_r.payload);
    } else if (why.empty() && Digest(snippet_r.payload) != digests[snippet]) {
      why = "snippet repeat differs from its first answer";
    }
    for (const Response* r : {&repair_r, &snippet_r}) {
      if (why.empty() &&
          (r->Field("pressure") != "exact" || r->Field("degraded") != "0")) {
        why = "response " + std::to_string(r->id) + " pressure=" +
              r->Field("pressure") + " degraded=" + r->Field("degraded");
      }
    }
    if (!why.empty()) run->Wrong(why);
    if (timed) {
      run->latency_ms.push_back(keystroke_s * 1e3);
      stateless_ms.push_back(snippet_s * 1e3);
      run->busy_s += step_s;
      ++run->ops;
      keystroke_bytes += static_cast<int64_t>(splice_r.wire_bytes + repair_r.wire_bytes);
    }
    return true;
  };

  // One round: every editor types kTypedPerRound opens at random positions,
  // then erases them newest first, interleaved across editors.
  int64_t round = 0;
  const auto do_round = [&](bool timed) {
    Rng rng(SubSeed(args.seed, kStreamKeys + static_cast<uint64_t>(round++)));
    for (int j = 0; j < 2 * kTypedPerRound; ++j) {
      for (size_t d = 0; d < editors.size(); ++d) {
        EditorDoc& ed = editors[d];
        Keystroke key;
        key.doc = static_cast<int>(d);
        if (j < kTypedPerRound) {
          key.pos = static_cast<int64_t>(rng.Below(ed.tokens.size() + 1));
          key.insert = std::string(1, "([{<"[rng.Below(4)]);
          for (int64_t& p : ed.typed) {
            if (p >= key.pos) ++p;
          }
          ed.typed.push_back(key.pos);
        } else {
          key.pos = ed.typed.back();
          key.erase = 1;
          ed.typed.pop_back();
          for (int64_t& p : ed.typed) {
            if (p > key.pos) --p;
          }
        }
        if (!do_step(key, timed)) return false;
        if (round == 1 && d == 0 && j == 0) run->setup_s = Since(setup_start);
      }
    }
    return true;
  };

  bool alive = do_round(/*timed=*/false);
  const Clock::time_point timed = Clock::now();
  while (alive && Since(timed) < seconds) {
    const double cpu_start = daemon.CpuSeconds();
    alive = do_round(/*timed=*/true);
    run->cpu_s += daemon.CpuSeconds() - cpu_start;
    run->EndRound();
  }
  run->peak_rss_mb = daemon.PeakRssMb();

  std::map<std::string, int64_t> stats;
  if (alive) {
    const uint64_t stats_id = next_id++;
    daemon.Send(Frame(stats_id, "stats", {}));
    ++sent;
    if (!read(&response) || response.id != stats_id || response.status != "ok") {
      run->Failed("stats: " + response.status);
    } else {
      stats = ParseStats(response.msg);
      if (stats["received"] != sent || stats["ok"] != ok) {
        run->Wrong("stats received=" + std::to_string(stats["received"]) +
                   " ok=" + std::to_string(stats["ok"]) + " but the client sent " +
                   std::to_string(sent) + " and saw " + std::to_string(ok) + " ok");
      }
    }
    daemon.Send(Frame(next_id++, "shutdown", {}));
    if (!read(&response) || response.status != "bye") {
      run->Failed("shutdown: " + response.status);
    }
  }
  const int exit_code = daemon.CloseAndWait();
  if (alive && exit_code != 0) {
    run->Failed("dyckfixd exited with " + std::to_string(exit_code));
  }

  // dyckfixd is built from the same library the harness links.
  run->simd = SimdBackend();

  if (args.trace) {
    Tracer tracer;
    std::string trace_error;
    run->layers = TraceDocReplay(
        opens, keystrokes,
        static_cast<int64_t>(2 * kTypedPerRound * editors.size()),
        kDaemonCacheBytes, &tracer, &trace_error);
    run->layers["server.keystroke_overhead_ms"] =
        Mean(keystroke_all_ms) - run->layers["core.doc_splice_ms"] -
        run->layers["core.doc_repair_ms"];
    run->layers["server.bytes_out_per_keystroke"] =
        static_cast<double>(keystroke_bytes) /
        static_cast<double>(std::max<int64_t>(run->ops, 1));
    run->layers["server.stateless_repair_ms"] = Mean(stateless_ms);
    run->layers["server.queue_depth_high_water"] =
        static_cast<double>(stats["queue_hw"]);
    const double lookups = static_cast<double>(stats["hit"] + stats["miss"]);
    run->layers["cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(stats["hit"]) / lookups : 0;
    run->layers["cache.evictions"] = static_cast<double>(stats["evict"]);
    FinishTrace(args, tracer, trace_error, run);
  }
}

// ---------------------------------------------------------------------------

void PrintMetric(std::string* json, bool* first, const std::string& name,
                 double value, const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *json += std::string(*first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + unit + "\"}";
  *first = false;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--daemon") {
      args.daemon = value;
    } else if (flag == "--revision") {
      args.revision = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  signal(SIGPIPE, SIG_IGN);

  Run run;
  if (args.workload == "longdoc-del") {
    RunLongdoc(args, /*substitutions=*/false, &run);
  } else if (args.workload == "longdoc-sub") {
    RunLongdoc(args, /*substitutions=*/true, &run);
  } else if (args.workload == "corpus-zipf") {
    RunCorpus(args, &run);
  } else if (args.workload == "daemon-edit") {
    RunDaemon(args, &run);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::printf("# dyckbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("# build type=%s revision=%s simd=%s cpus=%ld\n",
              DYCKBENCH_BUILD_TYPE, args.revision.c_str(), run.simd.c_str(),
              sysconf(_SC_NPROCESSORS_ONLN));
  // After the workload, so it cannot shape the harness's heap.
  std::printf("# machine reference: sort of 2^20 random u64 keys %.1f ms\n",
              ReferenceSortMs());
  if (!run.error.empty()) std::printf("# error: %s\n", run.error.c_str());
  const double p50 = Percentile(run.latency_ms, 0.5);
  std::printf("# latency samples=%zu ops=%lld rounds=%zu busy_s=%.3f "
              "untraced latency_ms_p50=%.4f\n",
              run.latency_ms.size(), static_cast<long long>(run.ops),
              run.round_ops_per_s.size(), run.busy_s, p50);
  std::printf("# round ops_per_s:");
  for (const double r : run.round_ops_per_s) std::printf(" %.4g", r);
  std::printf("\n");
  if (run.ops == 0 && run.failed == 0) run.Failed("no operation completed");

  std::string json;
  bool first = true;
  if (!args.trace) {
    PrintMetric(&json, &first, "ops_per_s",
                Percentile(run.round_ops_per_s, 0.5), "op/s");
    PrintMetric(&json, &first, "latency_ms_p50", p50, "ms");
    PrintMetric(&json, &first, "latency_ms_p90",
                Percentile(run.latency_ms, 0.9), "ms");
    PrintMetric(&json, &first, "cpu_ms_per_op",
                Percentile(run.round_cpu_ms_per_op, 0.5), "ms");
    PrintMetric(&json, &first, "peak_rss_mb", run.peak_rss_mb, "MB");
    PrintMetric(&json, &first, "setup_s", run.setup_s, "s");
  } else {
    for (const auto& [name, unit] : LayerMetricUnits()) {
      const double value = run.layers[name];
      std::printf("# layer %-32s %14.4f %s\n", name.c_str(), value, unit.c_str());
      PrintMetric(&json, &first, name, value, unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              run.correct ? "true" : "false",
              static_cast<long long>(run.attempted),
              static_cast<long long>(run.failed), json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace dyckbench

int main(int argc, char** argv) { return dyckbench::Main(argc, argv); }
