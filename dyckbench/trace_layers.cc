#include "trace_layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "checks.h"
#include "src/alphabet/paren.h"
#include "src/alphabet/parse.h"
#include "src/cache/repair_cache.h"
#include "src/core/context.h"
#include "src/core/doc.h"
#include "src/core/dyck.h"
#include "src/runtime/batch_engine.h"
#include "src/textio/bracket_tokenizer.h"
#include "src/textio/document_repair.h"

namespace dyckbench {
namespace {

// Child span names for the pipeline stages, in PipelineStage order.
constexpr const char* kStageSpans[dyck::kNumPipelineStages] = {
    "pipeline.normalize", "profile.reduce", "pipeline.select",
    "pipeline.solve", "core.materialize"};
constexpr const char* kStageMetrics[dyck::kNumPipelineStages] = {
    "pipeline.normalize_ms", "profile.reduce_ms", "pipeline.select_ms",
    "pipeline.solve_ms", "core.materialize_ms"};

std::string RenderToken(const dyck::Paren& paren,
                        const std::vector<std::string>&) {
  return dyck::textio::RenderBracketToken(paren);
}

/// Lays the telemetry's stage times end to end under `parent`, from its
/// start: the pipeline reports durations, not timestamps.
void AddStageSpans(Tracer* tracer, int64_t request, int64_t parent,
                   const dyck::RepairTelemetry& t) {
  double at = tracer->spans()[parent].start_ms;
  for (int s = 0; s < dyck::kNumPipelineStages; ++s) {
    const double ms = t.stage_seconds[s] * 1e3;
    tracer->Add(kStageSpans[s], request, parent, at, at + ms);
    at += ms;
  }
}

double StageTotalMs(const Tracer& tracer) {
  double total = 0;
  for (const char* name : kStageSpans) total += tracer.TotalMs(name);
  return total;
}

bool IsFptSolver(const std::string& name) {
  return name.empty() || name.rfind("fpt", 0) == 0;
}

/// Per-request counters that do not come from spans.
struct Counters {
  double subproblems = 0;
  double doubling = 0;
  double aligned_pairs = 0;
  double chunks_recomputed = 0;
  int64_t arena_high_water = 0;

  void Add(const dyck::RepairTelemetry& t, size_t pairs) {
    subproblems += static_cast<double>(t.subproblems);
    doubling += t.doubling_iterations;
    aligned_pairs += static_cast<double>(pairs);
    chunks_recomputed += static_cast<double>(t.chunks_recomputed);
    arena_high_water = std::max(arena_high_water, t.arena_high_water_bytes);
  }

  void Report(double requests, LayerMetrics* m) const {
    (*m)["fpt.subproblems"] = subproblems / requests;
    (*m)["pipeline.doubling_probes"] = doubling / requests;
    (*m)["core.aligned_pairs"] = aligned_pairs / requests;
    (*m)["core.arena_high_water_mb"] =
        static_cast<double>(arena_high_water) / (1 << 20);
  }
};

/// Every metric at 0, then the per-request means that every traced
/// workload takes from its spans the same way.
LayerMetrics SpanMetrics(const Tracer& tracer, double requests) {
  LayerMetrics m;
  for (const auto& [name, unit] : LayerMetricUnits()) m[name] = 0;
  m["textio.render_ms"] = tracer.TotalMs("textio.render") / requests;
  m["alphabet.balance_scan_ms"] =
      tracer.TotalMs("alphabet.balance_scan") / requests;
  for (int s = 0; s < dyck::kNumPipelineStages; ++s) {
    m[kStageMetrics[s]] = tracer.TotalMs(kStageSpans[s]) / requests;
  }
  m["trace.request_ms_p50"] = tracer.MedianMs("request");
  return m;
}

}  // namespace

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t request, int64_t parent) {
  const double now = NowMs();
  return Add(name, request, parent, now, now);
}

void Tracer::End(int64_t span) { spans_[span].end_ms = NowMs(); }

int64_t Tracer::Add(const char* name, int64_t request, int64_t parent,
                    double start_ms, double end_ms) {
  spans_.push_back(Span{name, request, parent, start_ms, end_ms});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::TotalMs(const char* name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) total += s.end_ms - s.start_ms;
  }
  return total;
}

double Tracer::MedianMs(const char* name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) d.push_back(s.end_ms - s.start_ms);
  }
  if (d.empty()) return 0;
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"request\": %lld, "
                 "\"parent\": %lld, \"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                 i, s.name, static_cast<long long>(s.request),
                 static_cast<long long>(s.parent), s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"textio.tokenize_ms", "ms"},
      {"textio.render_ms", "ms"},
      {"alphabet.balance_scan_ms", "ms"},
      {"pipeline.normalize_ms", "ms"},
      {"profile.reduce_ms", "ms"},
      {"pipeline.select_ms", "ms"},
      {"pipeline.solve_ms", "ms"},
      {"core.materialize_ms", "ms"},
      {"trace.unattributed_ms", "ms"},
      {"trace.request_ms_p50", "ms"},
      {"fpt.subproblems", "count"},
      {"pipeline.doubling_probes", "count"},
      {"core.aligned_pairs", "count"},
      {"core.arena_high_water_mb", "MB"},
      {"planner.non_fpt_docs", "count"},
      {"runtime.busy_share", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions", "count"},
      {"core.doc_splice_ms", "ms"},
      {"core.doc_repair_ms", "ms"},
      {"core.doc_chunks_recomputed", "count"},
      {"server.keystroke_overhead_ms", "ms"},
      {"server.bytes_out_per_keystroke", "bytes"},
      {"server.stateless_repair_ms", "ms"},
      {"server.queue_depth_high_water", "count"},
  };
  return kUnits;
}

LayerMetrics TraceLongdocs(const std::vector<Document>& docs,
                           bool substitutions, double seconds, Tracer* tracer,
                           std::string* error) {
  dyck::Options options;
  options.metric = substitutions ? dyck::Metric::kDeletionsAndSubstitutions
                                 : dyck::Metric::kDeletionsOnly;
  dyck::RepairContext context;
  Counters counters;
  int64_t requests = 0;
  int64_t non_fpt = 0;

  // One request, as dyckfix_context_repair decomposes it, plus the
  // reference balance scan outside the request span.
  const auto request = [&](const Document& doc, Tracer* t, int64_t id) {
    const int64_t root = t->Begin("request", id);
    int64_t s = t->Begin("textio.tokenize", id, root);
    const dyck::textio::TokenizedDocument tokens = dyck::textio::TokenizeBrackets(
        doc.text, dyck::ParenAlphabet::Default());
    t->End(s);
    s = t->Begin("dyck.Repair", id, root);
    auto result = dyck::Repair(tokens.seq, options, &context);
    t->End(s);
    if (!result.ok()) {
      if (error->empty()) *error = "Repair: " + result.status().ToString();
      t->End(root);
      return;
    }
    AddStageSpans(t, id, s, result->telemetry);
    s = t->Begin("textio.render", id, root);
    auto text = dyck::textio::ApplyScriptToDocument(doc.text, tokens,
                                                    result->script, RenderToken);
    t->End(s);
    t->End(root);
    s = t->Begin("alphabet.balance_scan", id);
    const bool balanced = dyck::IsBalanced(tokens.seq);
    t->End(s);
    if (t != tracer) {  // the untraced warm pass checks every answer
      const std::string why =
          text.ok() ? CheckRepair(doc.text, *text, result->distance,
                                  substitutions, doc.planted)
                    : text.status().ToString();
      if (!why.empty() && error->empty()) *error = why;
      if (balanced != (result->distance == 0) && error->empty()) {
        *error = "IsBalanced disagrees with the distance";
      }
      if (!IsFptSolver(result->telemetry.solver_name)) ++non_fpt;
      return;
    }
    counters.Add(result->telemetry, result->script.aligned_pairs.size());
    ++requests;
  };

  Tracer warm;
  for (size_t i = 0; i < docs.size(); ++i) request(docs[i], &warm, -1);
  const double start = tracer->NowMs();
  while (tracer->NowMs() - start < seconds * 1e3) {
    for (const Document& doc : docs) request(doc, tracer, requests);
  }

  const double n = static_cast<double>(std::max<int64_t>(requests, 1));
  LayerMetrics m = SpanMetrics(*tracer, n);
  m["textio.tokenize_ms"] = tracer->TotalMs("textio.tokenize") / n;
  m["trace.unattributed_ms"] =
      (tracer->TotalMs("request") - tracer->TotalMs("textio.tokenize") -
       tracer->TotalMs("textio.render") - StageTotalMs(*tracer)) /
      n;
  counters.Report(n, &m);
  m["planner.non_fpt_docs"] = static_cast<double>(non_fpt);
  return m;
}

LayerMetrics TraceCorpus(const std::vector<Document>& pool,
                         const std::vector<int64_t>& schedule, int batch,
                         int jobs, int64_t cache_bytes, double seconds,
                         Tracer* tracer, std::string* error) {
  dyck::runtime::BatchOptions batch_options;
  batch_options.jobs = jobs;
  batch_options.cache_bytes = cache_bytes;
  dyck::runtime::BatchRepairEngine engine(batch_options);
  const dyck::Options options;  // the default metric
  Counters counters;
  int64_t docs_done = 0;
  double stage_ms = 0;
  double engine_ms = 0;
  std::set<int64_t> non_fpt;
  std::vector<bool> checked(pool.size(), false);

  // One pass over the schedule, one request per batch.
  const auto pass = [&](Tracer* t, bool warm) {
    for (size_t b = 0; b + batch <= schedule.size(); b += batch) {
      const int64_t id = static_cast<int64_t>(b / batch);
      const int64_t root = t->Begin("request", id);
      std::vector<dyck::textio::TokenizedDocument> tokens(batch);
      std::vector<dyck::ParenSeq> seqs(batch);
      for (int i = 0; i < batch; ++i) {
        const int64_t s = t->Begin("textio.tokenize", id, root);
        tokens[i] = dyck::textio::TokenizeBrackets(
            pool[schedule[b + i]].text, dyck::ParenAlphabet::Default());
        t->End(s);
        seqs[i] = tokens[i].seq;
      }
      const int64_t s = t->Begin("runtime.RepairAll", id, root);
      dyck::runtime::BatchRepairOutcome outcome =
          engine.RepairAll(seqs, options);
      t->End(s);
      // Stage times are summed over the batch's documents (worker time).
      double at = t->spans()[s].start_ms;
      for (int st = 0; st < dyck::kNumPipelineStages; ++st) {
        const double ms = outcome.stats.telemetry.stage_seconds[st] * 1e3;
        t->Add(kStageSpans[st], id, s, at, at + ms);
        at += ms;
        if (!warm) stage_ms += ms;
      }
      if (!warm) engine_ms += t->spans()[s].end_ms - t->spans()[s].start_ms;
      for (int i = 0; i < batch; ++i) {
        const Document& doc = pool[schedule[b + i]];
        const auto& result = outcome.results[i];
        if (!result.ok()) {
          if (error->empty()) *error = "RepairAll: " + result.status().ToString();
          continue;
        }
        const int64_t r = t->Begin("textio.render", id, root);
        auto text = dyck::textio::ApplyScriptToDocument(
            doc.text, tokens[i], result->script, RenderToken);
        t->End(r);
        const size_t index = static_cast<size_t>(schedule[b + i]);
        if (warm && !checked[index]) {
          checked[index] = true;
          const std::string why =
              text.ok() ? CheckRepair(doc.text, *text, result->distance, true,
                                      doc.planted)
                        : text.status().ToString();
          if (!why.empty() && error->empty()) *error = why;
          if (!IsFptSolver(result->telemetry.solver_name)) {
            non_fpt.insert(schedule[b + i]);
          }
        }
        if (!warm) {
          counters.Add(result->telemetry, result->script.aligned_pairs.size());
          ++docs_done;
        }
      }
      t->End(root);
    }
  };

  Tracer warm;
  pass(&warm, true);
  const dyck::cache::RepairCacheStats before = engine.repair_cache()->Stats();
  const double start = tracer->NowMs();
  int64_t passes = 0;
  while (tracer->NowMs() - start < seconds * 1e3) {
    pass(tracer, false);
    ++passes;
  }
  const dyck::cache::RepairCacheStats after = engine.repair_cache()->Stats();

  const double n = static_cast<double>(std::max<int64_t>(docs_done, 1));
  LayerMetrics m = SpanMetrics(*tracer, n);
  m["textio.tokenize_ms"] = tracer->TotalMs("textio.tokenize") / n;
  // Stage spans are worker time, spread over `jobs` workers.
  m["trace.unattributed_ms"] =
      (tracer->TotalMs("request") - tracer->TotalMs("textio.tokenize") -
       tracer->TotalMs("textio.render") - stage_ms / jobs) /
      n;
  counters.Report(n, &m);
  m["planner.non_fpt_docs"] = static_cast<double>(non_fpt.size());
  m["runtime.busy_share"] = engine_ms > 0 ? stage_ms / (jobs * engine_ms) : 0;
  const double lookups = static_cast<double>((after.hits - before.hits) +
                                             (after.misses - before.misses));
  m["cache.hit_ratio"] =
      lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0;
  m["cache.evictions"] =
      static_cast<double>(after.evictions - before.evictions) /
      static_cast<double>(std::max<int64_t>(passes, 1));
  return m;
}

LayerMetrics TraceDocReplay(const std::vector<std::string>& opens,
                            const std::vector<Keystroke>& keystrokes,
                            int64_t keystrokes_per_round, int64_t cache_bytes,
                            Tracer* tracer, std::string* error) {
  dyck::cache::RepairCache cache(cache_bytes);
  std::vector<std::unique_ptr<dyck::RepairDoc>> docs;
  for (size_t i = 0; i < opens.size(); ++i) {
    const int64_t s = tracer->Begin("textio.tokenize", -1 - static_cast<int64_t>(i));
    dyck::ParenSeq seq =
        dyck::textio::TokenizeBrackets(opens[i], dyck::ParenAlphabet::Default())
            .seq;
    tracer->End(s);
    docs.push_back(std::make_unique<dyck::RepairDoc>(std::move(seq)));
  }
  dyck::Options options;
  options.metric = dyck::Metric::kDeletionsOnly;
  options.cache = &cache;
  Counters counters;
  int64_t non_fpt = 0;
  dyck::RepairResult result;
  for (size_t k = 0; k < keystrokes.size(); ++k) {
    const Keystroke& key = keystrokes[k];
    dyck::RepairDoc& doc = *docs[static_cast<size_t>(key.doc)];
    const int64_t id = static_cast<int64_t>(k);
    const int64_t root = tracer->Begin("request", id);
    int64_t s = tracer->Begin("textio.tokenize_insert", id, root);
    const dyck::ParenSeq insert =
        dyck::textio::TokenizeBrackets(key.insert, dyck::ParenAlphabet::Default())
            .seq;
    tracer->End(s);
    s = tracer->Begin("core.doc_splice", id, root);
    doc.Splice(key.pos, key.erase, insert);
    tracer->End(s);
    s = tracer->Begin("core.doc_repair", id, root);
    const dyck::Status status = doc.RepairInto(options, &result);
    tracer->End(s);
    if (!status.ok()) {
      if (error->empty()) *error = "RepairDoc: " + status.ToString();
      tracer->End(root);
      continue;
    }
    AddStageSpans(tracer, id, s, result.telemetry);
    s = tracer->Begin("textio.render", id, root);
    std::string rendered;
    rendered.reserve(result.repaired.size());
    for (const dyck::Paren& paren : result.repaired) {
      rendered.append(dyck::textio::RenderBracketToken(paren));
    }
    tracer->End(s);
    tracer->End(root);
    s = tracer->Begin("alphabet.balance_scan", id);
    const bool balanced = dyck::IsBalanced(doc.tokens());
    tracer->End(s);
    if (balanced != (result.distance == 0) && error->empty()) {
      *error = "IsBalanced disagrees with the doc distance";
    }
    if (!StackBalanced(rendered) && error->empty()) {
      *error = "replayed doc repair is not balanced";
    }
    if (!IsFptSolver(result.telemetry.solver_name)) ++non_fpt;
    counters.Add(result.telemetry, result.script.aligned_pairs.size());
  }

  const double n =
      static_cast<double>(std::max<size_t>(keystrokes.size(), 1));
  LayerMetrics m = SpanMetrics(*tracer, n);
  m["textio.tokenize_ms"] =
      tracer->TotalMs("textio.tokenize") /
      static_cast<double>(std::max<size_t>(opens.size(), 1));
  m["core.doc_splice_ms"] = tracer->TotalMs("core.doc_splice") / n;
  m["core.doc_repair_ms"] = tracer->TotalMs("core.doc_repair") / n;
  m["trace.unattributed_ms"] =
      (tracer->TotalMs("request") - tracer->TotalMs("textio.tokenize_insert") -
       tracer->TotalMs("core.doc_splice") - StageTotalMs(*tracer) -
       tracer->TotalMs("textio.render")) /
      n;
  counters.Report(n, &m);
  m["core.doc_chunks_recomputed"] = counters.chunks_recomputed / n;
  m["planner.non_fpt_docs"] =
      static_cast<double>(non_fpt * keystrokes_per_round) / n;
  return m;
}

}  // namespace dyckbench
