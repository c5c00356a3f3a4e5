// The seeded model repository every workload starts from. Parameter sets
// have the shapes of nn/zoo networks, are initialised by
// Network::InitializeWeights and then drift per checkpoint; nothing is
// trained, so generating the corpus is a small part of set-up.
//
// Structure (fixed; only the values depend on the seed), per family:
//   <f>_a    root version, a declared-lineage chain of 4 checkpoints
//   <f>_b    child of <f>_a, 4 more checkpoints continuing the drift
//   <f>_ft1  fine-tune of <f>_b with a declared parent, 2 snapshots
//   <f>_ft2  fine-tune of <f>_b with NO declared parent, 2 snapshots
// Fine-tunes copy their source's latest weights, keep every layer but
// the classifier frozen (exact repeats, so chunk dedup has work) and
// drift the classifier. <f>_ft2's relation to <f>_b is for similarity
// pairing to find.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dlv/repository.h"
#include "spans.h"

namespace perfbench {

struct CorpusVersion {
  std::string name;
  std::string parent;  ///< Declared lineage ("" = none).
  modelhub::NetworkDef network;
  std::vector<modelhub::TrainSnapshot> snapshots;
  std::vector<modelhub::TrainLogEntry> log;
  double best_accuracy = 0.0;
};

struct Corpus {
  /// In commit order (every parent precedes its children).
  std::vector<CorpusVersion> versions;
  uint64_t raw_bytes = 0;  ///< float32 bytes over every snapshot.

  /// Every snapshot key ("<version>/s<sequence>"), in commit order.
  std::vector<std::string> SnapshotKeys() const;
  /// The generated parameters of one snapshot key (null if unknown).
  const std::vector<modelhub::NamedParam>* Find(const std::string& key) const;
  int NumMatrices() const;

 private:
  friend Corpus MakeCorpus(uint64_t seed);
  std::map<std::string, std::pair<int, int>> index_;  ///< key -> (v, s).
};

Corpus MakeCorpus(uint64_t seed);

/// Commits every version into `repo` (one span per Repository::Commit).
modelhub::Status CommitCorpus(modelhub::Repository* repo, const Corpus& corpus,
                              SpanRecorder* spans);

/// One DQL select the serve workload issues, with the version set the
/// benchmark computes from its own corpus.
struct DqlCase {
  std::string statement;
  std::vector<std::string> expected;
};
std::vector<DqlCase> MakeDqlCases(const Corpus& corpus);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
