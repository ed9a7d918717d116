// The traced run: repeats each workload's requests through the C++ layer
// functions behind the public surfaces, one span per layer call.
//
// This is the only part of the benchmark that includes the library's
// internal headers; everything else goes through include/dyckfix.h or the
// dyckfixd wire protocol.

#ifndef DYCKBENCH_TRACE_LAYERS_H_
#define DYCKBENCH_TRACE_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen.h"

namespace dyckbench {

/// One layer call of one request. Times are ms since the tracer started.
struct Span {
  const char* name = "";
  int64_t request = 0;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  double start_ms = 0;
  double end_ms = 0;
};

/// In-memory span recorder; spans are written out once, at the end.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  double NowMs() const;
  /// Opens a span and returns its index; close it with End.
  int64_t Begin(const char* name, int64_t request, int64_t parent = -1);
  void End(int64_t span);
  /// Records a span whose times were measured elsewhere.
  int64_t Add(const char* name, int64_t request, int64_t parent,
              double start_ms, double end_ms);

  const std::vector<Span>& spans() const { return spans_; }
  /// Total duration of the spans called `name`.
  double TotalMs(const char* name) const;
  /// Median duration of the spans called `name`.
  double MedianMs(const char* name) const;
  /// Writes one JSON object per span, one per line.
  bool Write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

using LayerMetrics = std::map<std::string, double>;

/// The names and units of every per-layer metric, in report order. Each
/// Trace* function below reports all of them; a layer its workload does
/// not exercise reads 0. Checking failures are returned through `error`.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits();

/// Long documents: tokenize -> Repair (stage times as child spans) ->
/// render, plus a separate IsBalanced scan of each tokenized document.
/// Whole passes over `docs` until `seconds` have elapsed.
LayerMetrics TraceLongdocs(const std::vector<Document>& docs,
                           bool substitutions, double seconds, Tracer* tracer,
                           std::string* error);

/// Zipf corpus: per-document tokenize and render around
/// BatchRepairEngine::RepairAll over `batch`-sized slices of `schedule`,
/// with `jobs` workers and an engine cache of `cache_bytes`. The first
/// pass over the schedule warms the cache and is not reported.
LayerMetrics TraceCorpus(const std::vector<Document>& pool,
                         const std::vector<int64_t>& schedule, int batch,
                         int jobs, int64_t cache_bytes, double seconds,
                         Tracer* tracer, std::string* error);

/// One editor keystroke: a splice of document `doc`, then a repair.
struct Keystroke {
  int doc = 0;
  int64_t pos = 0;
  int64_t erase = 0;
  std::string insert;
};

/// In-process replay of a daemon-edit session: RepairDoc::Splice and
/// RepairDoc::RepairInto (deletions metric, cache of `cache_bytes`) for
/// every keystroke, plus the per-token render the server's response does.
/// Counts are per keystroke, except planner.non_fpt_docs: per round of
/// `keystrokes_per_round`.
LayerMetrics TraceDocReplay(const std::vector<std::string>& opens,
                            const std::vector<Keystroke>& keystrokes,
                            int64_t keystrokes_per_round, int64_t cache_bytes,
                            Tracer* tracer, std::string* error);

}  // namespace dyckbench

#endif  // DYCKBENCH_TRACE_LAYERS_H_
