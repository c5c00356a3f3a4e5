// `ingest`: commit the corpus into a fresh repository, then time
// Repository::Archive once per repetition and read every snapshot of the
// fresh archive back. It drives the whole write path (sketch,
// storage-graph costing, solver, delta + segment, codec encode, chunk
// commit); its only reads are those of a freshly written archive.

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "checks.h"
#include "common/env.h"
#include "compress/codec.h"
#include "corpus.h"
#include "dlv/layout.h"
#include "pas/archive.h"
#include "pas/sketch.h"
#include "pas/solver.h"

namespace perfbench {

using namespace modelhub;

namespace {

ArchiveOptions IngestArchiveOptions() {
  ArchiveOptions options;
  options.solver = ArchiveSolver::kPasPt;
  options.budget_alpha = 2.0;
  // One encode thread: the steadiest build time on a shared machine.
  options.archive_threads = 1;
  return options;
}

/// Reads every snapshot back through a freshly opened ArchiveReader over
/// `pas_dir`, checks it against the corpus and appends each read's latency
/// to `read_ms`. Returns the largest rounding error seen, in ulps.
double VerifyArchive(Env* env, const std::string& pas_dir,
                     const Corpus& corpus, const RoundingTolerance& tol,
                     RunResult* result, std::vector<double>* read_ms) {
  double worst_ulps = 0.0;
  result->Attempt();
  auto reader = ArchiveReader::Open(env, pas_dir);
  if (!reader.ok()) {
    result->Fail("open archive", reader.status());
    return worst_ulps;
  }
  for (const std::string& key : corpus.SnapshotKeys()) {
    result->Attempt();
    const Clock::time_point start = Clock::now();
    auto params = reader->RetrieveSnapshot(key);
    read_ms->push_back(MillisSince(start));
    if (!params.ok()) {
      result->Fail("retrieve " + key, params.status());
      continue;
    }
    result->Check("ingest read " + key,
                  CheckExact(*params, *corpus.Find(key), tol));
    worst_ulps = std::max(worst_ulps, MaxErrorUlps(*params, *corpus.Find(key)));
  }
  return worst_ulps;
}

/// Replays the build's layers through their public functions on the
/// in-memory corpus, registered in Repository::Archive's order, with one
/// parent span per layer. Returns nothing; the spans carry the timings.
Status ReplayWriteLayers(Env* env, const Corpus& corpus,
                         const ArchiveOptions& options,
                         const std::string& chunk_path, SpanRecorder* spans) {
  SpanRecorder::Scope request(spans, "replay.write_path", spans->NewRequest());
  std::vector<SnapshotSpec> specs;
  std::vector<const NamedParam*> matrices;
  std::vector<std::string> matrix_snapshot;
  std::vector<std::pair<int, int>> candidates;
  std::map<std::string, int> last_index;
  for (const CorpusVersion& v : corpus.versions) {
    for (size_t s = 0; s < v.snapshots.size(); ++s) {
      const std::string key = v.name + "/s" + std::to_string(s);
      const int index = static_cast<int>(specs.size());
      specs.push_back({key, &v.snapshots[s].params});
      for (const NamedParam& p : v.snapshots[s].params) {
        matrices.push_back(&p);
        matrix_snapshot.push_back(key);
      }
      if (s > 0) candidates.push_back({index - 1, index});
      last_index[v.name] = index;
    }
  }
  for (const CorpusVersion& v : corpus.versions) {
    if (v.parent.empty()) continue;
    candidates.push_back(
        {last_index[v.parent], last_index[v.name] -
                                   static_cast<int>(v.snapshots.size()) + 1});
  }

  std::vector<MatrixPairCandidate> similarity;
  {
    SpanRecorder::Scope layer(spans, "pas.sketch");
    std::vector<ParamSketch> sketches;
    for (const NamedParam* p : matrices) {
      SpanRecorder::Scope call(spans, "ComputeParamSketch");
      sketches.push_back(ComputeParamSketch(p->value));
    }
    SpanRecorder::Scope call(spans, "SimilarDeltaPairs");
    for (const SketchPairing& pair :
         SimilarDeltaPairs(sketches, options.similarity_fanout,
                           options.similarity_threshold)) {
      similarity.push_back({matrix_snapshot[pair.from],
                            matrices[pair.from]->name,
                            matrix_snapshot[pair.to], matrices[pair.to]->name});
    }
  }

  std::optional<MatrixStorageGraph> graph;
  {
    SpanRecorder::Scope layer(spans, "pas.costing");
    SpanRecorder::Scope call(spans, "BuildMatrixStorageGraph");
    MH_ASSIGN_OR_RETURN(
        graph, BuildMatrixStorageGraph(specs, candidates, options.codec,
                                       options.delta_kind,
                                       options.recreation_raw_weight, {},
                                       nullptr, similarity));
  }

  std::optional<StoragePlan> plan;
  {
    SpanRecorder::Scope layer(spans, "pas.solve");
    MH_ASSIGN_OR_RETURN(StoragePlan spt, SolveSpt(*graph));
    // Archive builds the MST as well (its storage-cost lower bound).
    MH_RETURN_IF_ERROR(SolveMst(*graph).status());
    for (CoUsageGroup& group : *graph->mutable_groups()) {
      group.budget = options.budget_alpha *
                     spt.GroupRecreationCost(group, options.scheme);
    }
    SpanRecorder::Scope call(spans, "SolvePasPt");
    MH_ASSIGN_OR_RETURN(plan, SolvePasPt(*graph, options.scheme));
  }

  // Vertex v (1-based) holds matrices[v - 1].
  std::vector<std::array<std::string, kNumPlanes>> planes(matrices.size());
  {
    SpanRecorder::Scope layer(spans, "pas.delta_segment");
    for (size_t i = 0; i < matrices.size(); ++i) {
      const int parent = plan->Parent(static_cast<int>(i) + 1);
      FloatMatrix delta;
      if (parent == 0) {
        delta = matrices[i]->value;
      } else {
        const FloatMatrix& base = matrices[static_cast<size_t>(parent - 1)]->value;
        const bool same_shape = base.rows() == matrices[i]->value.rows() &&
                                base.cols() == matrices[i]->value.cols();
        SpanRecorder::Scope call(spans, "ComputeDelta");
        MH_ASSIGN_OR_RETURN(
            delta, ComputeDelta(matrices[i]->value, base,
                                same_shape ? options.delta_kind
                                           : ToAdaptive(options.delta_kind)));
      }
      SpanRecorder::Scope call(spans, "SegmentFloats");
      planes[i] = SegmentFloats(delta);
    }
  }

  std::vector<std::string> compressed(matrices.size() * kNumPlanes);
  {
    SpanRecorder::Scope layer(spans, "compress.encode");
    const Codec* codec = Codec::Get(options.codec);
    for (size_t i = 0; i < matrices.size(); ++i) {
      for (int p = 0; p < kNumPlanes; ++p) {
        SpanRecorder::Scope call(spans, "Codec::Compress");
        MH_RETURN_IF_ERROR(
            codec->Compress(Slice(planes[i][p]), &compressed[i * kNumPlanes + p]));
      }
    }
  }

  {
    SpanRecorder::Scope layer(spans, "pas.chunk_write");
    ChunkStoreWriter writer(env, chunk_path);
    for (size_t i = 0; i < matrices.size(); ++i) {
      for (int p = 0; p < kNumPlanes; ++p) {
        SpanRecorder::Scope call(spans, "ChunkStoreWriter::PutCompressed");
        MH_RETURN_IF_ERROR(writer
                               .PutCompressed(Slice(compressed[i * kNumPlanes + p]),
                                              planes[i][p].size(), options.codec)
                               .status());
      }
    }
    SpanRecorder::Scope call(spans, "ChunkStoreWriter::Finish");
    MH_RETURN_IF_ERROR(writer.Finish());
  }
  return Status::OK();
}

}  // namespace

Status RunIngest(const RunOptions& o, SpanRecorder* spans, RunResult* result) {
  Env* env = Env::Default();
  const Corpus corpus = MakeCorpus(o.seed);
  const RoundingTolerance tol(corpus);
  const std::string pristine = o.workdir + "/pristine";
  const std::string work = o.workdir + "/build";
  {
    MH_ASSIGN_OR_RETURN(Repository repo, Repository::Init(env, pristine));
    MH_RETURN_IF_ERROR(CommitCorpus(&repo, corpus, spans));
  }

  const ArchiveOptions options = IngestArchiveOptions();
  const double raw_mb = static_cast<double>(corpus.raw_bytes) / 1e6;
  // One repetition: a fresh copy of the committed repository, archived.
  auto build = [&](ArchiveBuildReport* report, double* ms) -> bool {
    result->Attempt();
    Status copied = CopyTree(pristine, work);
    if (!copied.ok()) {
      result->Fail("copy repository", copied);
      return false;
    }
    auto repo = Repository::Open(env, work);
    if (!repo.ok()) {
      result->Fail("open repository", repo.status());
      return false;
    }
    SpanRecorder::Scope span(spans, "dlv.Archive", spans->NewRequest());
    const Clock::time_point start = Clock::now();
    auto built = repo->Archive(options);
    *ms = MillisSince(start);
    if (!built.ok()) {
      result->Fail("archive", built.status());
      return false;
    }
    *report = *built;
    return true;
  };

  // Warm-up build and reads (untimed), the reads checked like every other.
  ArchiveBuildReport report;
  double ms = 0.0;
  std::vector<double> build_ms, read_ms;
  const uint64_t encodes_before = CounterValue("codec.deflate-lite.encode.calls");
  if (!build(&report, &ms)) return Status::OK();
  const uint64_t encodes =
      CounterValue("codec.deflate-lite.encode.calls") - encodes_before;
  const std::string pas_dir = repo_layout::PasDir(work);
  const uint64_t stored_bytes = DirBytes(pas_dir);
  double worst_ulps = VerifyArchive(env, pas_dir, corpus, tol, result, &read_ms);
  read_ms.clear();
  // Set-up is everything before the timed phase, the warm-up build too.
  EndToEnd(o, result, "setup_s", SecondsSince(o.process_start), "s");

  // One repetition: build, then read every snapshot of the fresh archive.
  const Clock::time_point start = Clock::now();
  do {
    if (!build(&report, &ms)) continue;
    build_ms.push_back(ms);
    const uint64_t bytes = DirBytes(pas_dir);
    result->Check("archive bytes repeat",
                  bytes == stored_bytes
                      ? ""
                      : "build wrote " + std::to_string(bytes) +
                            " bytes, the first wrote " +
                            std::to_string(stored_bytes));
    worst_ulps = std::max(
        worst_ulps, VerifyArchive(env, pas_dir, corpus, tol, result, &read_ms));
  } while (SecondsSince(start) < o.seconds);

  std::fprintf(stderr,
               "ingest: %zu versions, %zu snapshots, %d matrices, %.2f MB raw, "
               "%.2f MB stored, %zu timed builds of %.1f / %.1f / %.1f ms "
               "(min / median / max) = %.2f MB/s at the median, reads p50 "
               "%.3f ms, largest read error %.3g ulp of the matrix's largest "
               "magnitude\n",
               corpus.versions.size(), corpus.SnapshotKeys().size(),
               corpus.NumMatrices(), raw_mb, stored_bytes / 1e6,
               build_ms.size(), Percentile(build_ms, 0.0), Median(build_ms),
               Percentile(build_ms, 1.0), raw_mb / (Median(build_ms) / 1e3),
               Median(read_ms), worst_ulps);
  EndToEnd(o, result, "op_p50_ms", Median(build_ms), "ms");
  EndToEnd(o, result, "op_p90_ms", Percentile(build_ms, 0.9), "ms");
  EndToEnd(o, result, "read_p50_ms", Median(read_ms), "ms");
  EndToEnd(o, result, "disk_per_raw",
           static_cast<double>(stored_bytes) / corpus.raw_bytes, "bytes/byte");

  if (!o.trace) return Status::OK();
  constexpr int kReplays = 3;
  for (int i = 0; i < kReplays; ++i) {
    result->Attempt();
    Status replay = ReplayWriteLayers(env, corpus, options,
                                      o.workdir + "/replay-chunks.bin", spans);
    if (!replay.ok()) result->Fail("replay write layers", replay);
  }
  auto layer_ms = [&](const char* name) {
    return Median(spans->DurationsMs(name));
  };
  PerLayer(o, result, "dlv.commit_ms", Sum(spans->DurationsMs("dlv.Commit")),
           "ms");
  PerLayer(o, result, "pas.sketch_ms", layer_ms("pas.sketch"), "ms");
  PerLayer(o, result, "pas.costing_ms", layer_ms("pas.costing"), "ms");
  PerLayer(o, result, "compress.encodes_per_stored_plane",
           static_cast<double>(encodes) / (4.0 * report.pipeline.jobs),
           "ratio");
  PerLayer(o, result, "pas.solve_ms", layer_ms("pas.solve"), "ms");
  PerLayer(o, result, "pas.delta_segment_ms", layer_ms("pas.delta_segment"),
           "ms");
  PerLayer(o, result, "compress.encode_mb_s",
           raw_mb / (layer_ms("compress.encode") / 1e3), "MB/s");
  PerLayer(o, result, "pas.chunk_write_ms", layer_ms("pas.chunk_write"), "ms");
  PerLayer(o, result, "pas.dedup_saved_mb",
           static_cast<double>(report.pipeline.dedup_saved_bytes) / 1e6, "MB");
  PerLayer(o, result, "pas.similarity_parents", report.similarity_parents,
           "count");
  return Status::OK();
}

}  // namespace perfbench
