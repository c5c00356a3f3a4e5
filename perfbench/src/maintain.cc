// `maintain`: archive the corpus during set-up, then repeat rounds of a
// fixed number of maintenance cycles, each round on a fresh copy of the
// set-up repository. A cycle records a seeded, skewed access pattern whose
// hot set shifts every cycle, runs LifecycleDaemon::RunOnce, then reads
// every snapshot back through a fresh, uncached ArchiveReader. It is the
// only workload where re-encoding under access-weighted budgets, GC,
// cross-generation dedup and the files one read touches matter.

#include <cstdio>

#include "bench.h"
#include "checks.h"
#include "common/env.h"
#include "common/random.h"
#include "compress/codec.h"
#include "corpus.h"
#include "dlv/fsck.h"
#include "dlv/layout.h"
#include "lifecycle/daemon.h"
#include "pas/archive.h"

namespace perfbench {

using namespace modelhub;

namespace {

/// Cycles per round. Disk bytes grow from cycle to cycle, so the count is
/// fixed and disk_per_raw is taken after the last one.
constexpr int kCyclesPerRound = 4;
/// Accesses to the hottest snapshot; the rank-r snapshot gets 1/(r+1) of it.
constexpr int kHottestAccesses = 64;
constexpr int kHotSetSize = 8;

/// The access pattern of one cycle: a Zipf-like hot set of kHotSetSize
/// consecutive snapshots whose window moves by a quarter of the snapshots
/// each cycle. The seed only orders the ranks inside the window, so every
/// seed heats the same mix of model families and chain positions (which
/// snapshots are hot moves disk bytes far more than the data does).
/// Depends only on the seed and the cycle number, so every round replays
/// it exactly.
void RecordAccesses(AccessTracker* tracker,
                    const std::vector<std::string>& keys, uint64_t seed,
                    int cycle) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(cycle) + 1);
  const size_t n = keys.size();
  const size_t start = static_cast<size_t>(cycle) * n / kCyclesPerRound;
  std::vector<size_t> window;
  for (int i = 0; i < kHotSetSize; ++i) {
    window.push_back((start + static_cast<size_t>(i)) % n);
  }
  for (size_t i = window.size(); i > 1; --i) {
    std::swap(window[i - 1], window[rng.Uniform(i)]);
  }
  for (int rank = 0; rank < kHotSetSize; ++rank) {
    for (int i = 0; i < kHottestAccesses / (rank + 1); ++i) {
      tracker->RecordAccess(keys[window[static_cast<size_t>(rank)]]);
    }
  }
}

double OutcomeMs(const MaintenanceStatus& status, const char* task) {
  for (const TaskOutcome& outcome : status.last_outcomes) {
    if (outcome.name == task) return outcome.wall_ms;
  }
  return 0.0;
}

struct ChunkRates {
  double fetch_mb_s = 0.0;
  double decode_mb_s = 0.0;
};

/// Fetches every chunk of every data file the archive references, then
/// decodes it, timing the two layers apart.
ChunkRates MeasureChunkLayers(Env* env, const std::string& pas_dir,
                              const ArchiveReader& reader, SpanRecorder* spans,
                              RunResult* result) {
  double fetch_ms = 0.0, decode_ms = 0.0;
  uint64_t fetched = 0, decoded = 0;
  for (const std::string& file : reader.data_files()) {
    result->Attempt();
    auto store = ChunkStoreReader::Open(env, pas_dir + "/" + file);
    if (!store.ok()) {
      result->Fail("open " + file, store.status());
      continue;
    }
    for (uint32_t id = 0; id < store->num_chunks(); ++id) {
      result->Attempt();
      const uint64_t request = spans->NewRequest();
      Clock::time_point start = Clock::now();
      Result<std::string> compressed = Status::OK();
      {
        SpanRecorder::Scope span(spans, "ChunkStoreReader::GetCompressed",
                                 request);
        compressed = store->GetCompressed(id);
      }
      fetch_ms += MillisSince(start);
      if (!compressed.ok()) {
        result->Fail("fetch chunk", compressed.status());
        continue;
      }
      std::string raw;
      start = Clock::now();
      Status status;
      {
        SpanRecorder::Scope span(spans, "Codec::Decompress", request);
        status = Codec::Get(store->ref(id).codec)
                     ->Decompress(Slice(*compressed), &raw);
      }
      decode_ms += MillisSince(start);
      if (!status.ok()) {
        result->Fail("decode chunk", status);
        continue;
      }
      fetched += compressed->size();
      decoded += raw.size();
    }
  }
  return {fetched / 1e6 / (fetch_ms / 1e3), decoded / 1e6 / (decode_ms / 1e3)};
}

}  // namespace

Status RunMaintain(const RunOptions& o, SpanRecorder* spans,
                   RunResult* result) {
  Env* env = Env::Default();
  const Corpus corpus = MakeCorpus(o.seed);
  const RoundingTolerance tol(corpus);
  const std::vector<std::string> keys = corpus.SnapshotKeys();
  const std::string base = o.workdir + "/base";
  const std::string work = o.workdir + "/round";
  {
    MH_ASSIGN_OR_RETURN(Repository repo, Repository::Init(env, base));
    MH_RETURN_IF_ERROR(CommitCorpus(&repo, corpus, spans));
    ArchiveOptions archive_options;
    archive_options.budget_alpha = 2.0;
    archive_options.archive_threads = 1;
    MH_RETURN_IF_ERROR(repo.Archive(archive_options).status());
  }
  EndToEnd(o, result, "setup_s", SecondsSince(o.process_start), "s");

  LifecycleOptions options;
  options.archive_threads = 1;
  const std::string pas_dir = repo_layout::PasDir(work);
  const double raw = static_cast<double>(corpus.raw_bytes);

  std::vector<double> cycle_ms, read_ms, bytes_read, vertices;
  std::vector<double> plan_ms, reencode_ms, gc_ms, reclaimed;
  uint64_t last_disk = 0;
  int rounds = 0;
  ChunkRates rates;
  ArchiveDedupStats last_dedup;
  MaintenanceStatus last_status;
  size_t data_files = 0;
  const Clock::time_point start = Clock::now();
  do {
    ++rounds;
    result->Attempt();
    if (Status copied = CopyTree(base, work); !copied.ok()) {
      result->Fail("copy repository", copied);
      continue;
    }
    LifecycleDaemon daemon(env, work, options);
    uint64_t reclaimed_before = 0;
    for (int cycle = 0; cycle < kCyclesPerRound; ++cycle) {
      RecordAccesses(daemon.access_tracker(), keys, o.seed, cycle);
      result->Attempt();
      Status ran;
      {
        SpanRecorder::Scope span(spans, "lifecycle.RunOnce",
                                 spans->NewRequest());
        const Clock::time_point cycle_start = Clock::now();
        ran = daemon.RunOnce();
        cycle_ms.push_back(MillisSince(cycle_start));
      }
      if (!ran.ok()) {
        result->Fail("maintenance cycle", ran);
        continue;
      }
      const MaintenanceStatus status = daemon.status();
      plan_ms.push_back(OutcomeMs(status, "plan"));
      reencode_ms.push_back(OutcomeMs(status, "reencode"));
      gc_ms.push_back(OutcomeMs(status, "gc"));
      reclaimed.push_back(
          static_cast<double>(status.bytes_reclaimed_total - reclaimed_before));
      reclaimed_before = status.bytes_reclaimed_total;

      result->Attempt();
      auto reader = ArchiveReader::Open(env, pas_dir);
      if (!reader.ok()) {
        result->Fail("open archive", reader.status());
        continue;
      }
      for (const std::string& key : keys) {
        result->Attempt();
        RetrievalStats stats;
        SpanRecorder::Scope span(spans, "pas.RetrieveSnapshot",
                                 spans->NewRequest());
        const Clock::time_point read_start = Clock::now();
        auto params = reader->RetrieveSnapshot(key, &stats);
        read_ms.push_back(MillisSince(read_start));
        if (!params.ok()) {
          result->Fail("cold read " + key, params.status());
          continue;
        }
        bytes_read.push_back(static_cast<double>(stats.bytes_read));
        vertices.push_back(static_cast<double>(stats.vertices_resolved));
        result->Check("maintained read " + key,
                      CheckExact(*params, *corpus.Find(key), tol));
      }
      const uint64_t disk = DirBytes(pas_dir);
      const ArchiveDedupStats dedup = reader->ComputeDedupStats();
      result->Check("cycle " + std::to_string(cycle + 1) + " disk vs live",
                    CheckDiskCoversLive(disk, dedup.stored_bytes));
      if (rounds == 1) {
        std::fprintf(stderr,
                     "maintain cycle %d: %.1f ms, disk %.3f MB, live %.3f MB, "
                     "%zu data files, %llu cross-file refs\n",
                     cycle + 1, cycle_ms.back(), disk / 1e6,
                     dedup.stored_bytes / 1e6, reader->data_files().size(),
                     static_cast<unsigned long long>(dedup.cross_file_refs));
      }
      if (cycle + 1 < kCyclesPerRound) continue;
      // After the last cycle of the round.
      if (rounds > 1) {
        result->Check("disk bytes repeat across rounds",
                      disk == last_disk
                          ? ""
                          : "round ended with " + std::to_string(disk) +
                                " bytes, the first with " +
                                std::to_string(last_disk));
      }
      last_disk = disk;
      last_dedup = dedup;
      last_status = status;
      data_files = reader->data_files().size();
      if (o.trace && rounds == 1) {
        rates = MeasureChunkLayers(env, pas_dir, *reader, spans, result);
      }
      result->Attempt();
      auto fsck = RunFsck(env, work);
      if (!fsck.ok()) {
        result->Fail("fsck", fsck.status());
      } else {
        result->Check("fsck after the last cycle", CheckFsckClean(*fsck));
      }
    }
  } while (SecondsSince(start) < o.seconds);
  RemoveTree(work);

  std::fprintf(stderr, "maintain: %d rounds of %d cycles over %zu snapshots\n",
               rounds, kCyclesPerRound, keys.size());
  EndToEnd(o, result, "op_p50_ms", Median(cycle_ms), "ms");
  EndToEnd(o, result, "op_p90_ms", Percentile(cycle_ms, 0.9), "ms");
  EndToEnd(o, result, "read_p50_ms", Median(read_ms), "ms");
  EndToEnd(o, result, "disk_per_raw", last_disk / raw, "bytes/byte");

  PerLayer(o, result, "dlv.commit_ms", Sum(spans->DurationsMs("dlv.Commit")),
           "ms");
  PerLayer(o, result, "lifecycle.plan_ms", Median(plan_ms), "ms");
  PerLayer(o, result, "lifecycle.reencode_ms", Median(reencode_ms), "ms");
  PerLayer(o, result, "lifecycle.gc_ms", Median(gc_ms), "ms");
  PerLayer(o, result, "lifecycle.reclaimed_mb",
           reclaimed.empty() ? 0.0 : Sum(reclaimed) / reclaimed.size() / 1e6,
           "MB");
  PerLayer(o, result, "lifecycle.shared_files",
           static_cast<double>(last_status.shared_files), "count");
  PerLayer(o, result, "pas.live_per_raw", last_dedup.stored_bytes / raw,
           "bytes/byte");
  PerLayer(o, result, "pas.data_files", static_cast<double>(data_files),
           "count");
  PerLayer(o, result, "pas.cross_file_refs",
           static_cast<double>(last_dedup.cross_file_refs), "count");
  PerLayer(o, result, "pas.bytes_read_per_snapshot", Median(bytes_read),
           "bytes");
  PerLayer(o, result, "pas.vertices_per_snapshot", Median(vertices), "count");
  PerLayer(o, result, "pas.chunk_fetch_mb_s", rates.fetch_mb_s, "MB/s");
  PerLayer(o, result, "compress.decode_mb_s", rates.decode_mb_s, "MB/s");
  return Status::OK();
}

}  // namespace perfbench
