#include "corpus.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "nn/network.h"
#include "nn/zoo.h"

namespace perfbench {

using modelhub::NamedParam;
using modelhub::NetworkDef;
using modelhub::Rng;
using modelhub::TrainSnapshot;

namespace {

constexpr int kChainSnapshots = 4;     ///< Checkpoints of <f>_a and <f>_b.
constexpr int kFineTuneSnapshots = 2;  ///< Snapshots of each fine-tune.

/// One SGD-like step: every weight moves by a small Gaussian relative to
/// its layer's initialisation scale (He init: sqrt(2 / fan_in)).
void Drift(std::vector<NamedParam>* params, Rng* rng, bool head_only) {
  for (size_t i = 0; i < params->size(); ++i) {
    // The classifier is the last parameterised layer: its W and b.
    if (head_only && i + 2 < params->size()) continue;
    NamedParam& p = (*params)[i];
    const bool bias = p.value.cols() == 1 || p.name.ends_with(".b");
    const float sigma =
        bias ? 1e-3f
             : 0.01f * std::sqrt(2.0f / static_cast<float>(p.value.cols()));
    for (float& v : p.value.data()) {
      v += sigma * static_cast<float>(rng->NextGaussian());
    }
  }
}

}  // namespace

std::vector<std::string> Corpus::SnapshotKeys() const {
  std::vector<std::string> keys;
  for (const CorpusVersion& v : versions) {
    for (size_t s = 0; s < v.snapshots.size(); ++s) {
      keys.push_back(v.name + "/s" + std::to_string(s));
    }
  }
  return keys;
}

const std::vector<NamedParam>* Corpus::Find(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  return &versions[static_cast<size_t>(it->second.first)]
              .snapshots[static_cast<size_t>(it->second.second)]
              .params;
}

int Corpus::NumMatrices() const {
  int n = 0;
  for (const CorpusVersion& v : versions) {
    for (const TrainSnapshot& s : v.snapshots) {
      n += static_cast<int>(s.params.size());
    }
  }
  return n;
}

Corpus MakeCorpus(uint64_t seed) {
  Corpus corpus;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  struct Family {
    std::string prefix;
    NetworkDef def;
  };
  const std::vector<Family> families = {
      {"vgg", modelhub::MiniVgg(10, 32, 2)},
      {"slim", modelhub::MiniVgg(10, 32, 1)},
      {"res", modelhub::MiniResNet(10, 32, 2, 16)},
  };
  for (const Family& family : families) {
    auto net = modelhub::Network::Create(family.def);
    MH_CHECK(net.ok());
    net->InitializeWeights(&rng);
    std::vector<NamedParam> weights = net->GetParameters();

    auto add_version = [&](const std::string& suffix, const std::string& parent,
                           int snapshots, bool head_only,
                           std::vector<NamedParam> start) {
      CorpusVersion version;
      version.name = family.prefix + "_" + suffix;
      version.parent = parent.empty() ? "" : family.prefix + "_" + parent;
      version.network = family.def;
      for (int s = 0; s < snapshots; ++s) {
        Drift(&start, &rng, head_only);
        version.snapshots.push_back(TrainSnapshot{100 * (s + 1), start});
        modelhub::TrainLogEntry entry;
        entry.iteration = 100 * (s + 1);
        entry.loss = 2.3 * std::exp(-0.3 * (s + 1));
        // Quantised to 1/1000 so a DQL threshold at a half step can never
        // tie with a stored accuracy.
        entry.train_accuracy =
            0.5 + static_cast<double>(rng.Uniform(450)) / 1000.0;
        entry.learning_rate = 0.01;
        version.best_accuracy =
            std::max(version.best_accuracy, entry.train_accuracy);
        version.log.push_back(entry);
      }
      corpus.versions.push_back(std::move(version));
      return corpus.versions.back().snapshots.back().params;
    };
    const auto a_last = add_version("a", "", kChainSnapshots, false, weights);
    const auto b_last = add_version("b", "a", kChainSnapshots, false, a_last);
    add_version("ft1", "b", kFineTuneSnapshots, true, b_last);
    add_version("ft2", "", kFineTuneSnapshots, true, b_last);
  }
  for (size_t v = 0; v < corpus.versions.size(); ++v) {
    const CorpusVersion& version = corpus.versions[v];
    for (size_t s = 0; s < version.snapshots.size(); ++s) {
      corpus.index_[version.name + "/s" + std::to_string(s)] = {
          static_cast<int>(v), static_cast<int>(s)};
      for (const NamedParam& p : version.snapshots[s].params) {
        corpus.raw_bytes += static_cast<uint64_t>(p.value.size()) * 4;
      }
    }
  }
  return corpus;
}

modelhub::Status CommitCorpus(modelhub::Repository* repo, const Corpus& corpus,
                              SpanRecorder* spans) {
  for (const CorpusVersion& version : corpus.versions) {
    modelhub::CommitRequest request;
    request.name = version.name;
    request.parent = version.parent;
    request.network = version.network;
    request.snapshots = version.snapshots;
    request.log = version.log;
    request.message = "perfbench corpus";
    SpanRecorder::Scope span(spans, "dlv.Commit", spans->NewRequest());
    MH_RETURN_IF_ERROR(repo->Commit(request).status());
  }
  return modelhub::Status::OK();
}

std::vector<DqlCase> MakeDqlCases(const Corpus& corpus) {
  std::vector<DqlCase> cases(3);
  cases[0].statement = "select m where m.name like \"vgg%\"";
  cases[1].statement = "select m where m.accuracy >= 0.8005";
  cases[2].statement =
      "select m where m.num_snapshots >= 3 and not m.name like \"res%\"";
  for (const CorpusVersion& v : corpus.versions) {
    if (v.name.starts_with("vgg")) cases[0].expected.push_back(v.name);
    if (v.best_accuracy >= 0.8005) cases[1].expected.push_back(v.name);
    if (v.snapshots.size() >= 3 && !v.name.starts_with("res")) {
      cases[2].expected.push_back(v.name);
    }
  }
  return cases;
}

}  // namespace perfbench
