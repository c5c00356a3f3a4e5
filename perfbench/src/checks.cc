#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <tuple>

namespace perfbench {

using modelhub::FloatMatrix;
using modelhub::IntervalMatrix;
using modelhub::NamedParam;

namespace {

/// Spacing of float32 values at magnitude `m` (0 for m == 0).
double Ulp(double m) {
  return m > 0.0 ? std::ldexp(1.0, std::ilogb(m) - 23) : 0.0;
}

double MaxAbs(const FloatMatrix& m) {
  double out = 0.0;
  for (float v : m.data()) out = std::max(out, std::fabs(static_cast<double>(v)));
  return out;
}

std::string Shape(int64_t rows, int64_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

}  // namespace

RoundingTolerance::RoundingTolerance(const Corpus& corpus) {
  for (const CorpusVersion& v : corpus.versions) {
    for (const modelhub::TrainSnapshot& s : v.snapshots) {
      for (const NamedParam& p : s.params) Add(p.value);
    }
  }
  Finish();
}

RoundingTolerance::RoundingTolerance(const std::vector<NamedParam>& params) {
  for (const NamedParam& p : params) Add(p.value);
  Finish();
}

void RoundingTolerance::Add(const FloatMatrix& m) {
  ShapeStats& s = shapes_[{m.rows(), m.cols()}];
  s.max_abs = std::max(s.max_abs, MaxAbs(m));
  ++s.count;
}

void RoundingTolerance::Finish() {
  for (auto& [shape, s] : shapes_) s.tol = 2.0 * s.count * Ulp(s.max_abs);
}

double RoundingTolerance::For(int64_t rows, int64_t cols) const {
  auto it = shapes_.find({rows, cols});
  return it == shapes_.end() ? 0.0 : it->second.tol;
}

double MaxErrorUlps(const std::vector<NamedParam>& got,
                    const std::vector<NamedParam>& want) {
  if (got.size() != want.size()) return -1.0;
  double worst = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& g = got[i].value.data();
    const auto& w = want[i].value.data();
    if (g.size() != w.size()) return -1.0;
    const double ulp = Ulp(MaxAbs(want[i].value));
    for (size_t j = 0; j < g.size(); ++j) {
      const double err = std::fabs(static_cast<double>(g[j]) - w[j]);
      if (err > 0.0) worst = std::max(worst, ulp > 0.0 ? err / ulp : 1e30);
    }
  }
  return worst;
}

std::string CheckExact(const std::vector<NamedParam>& got,
                       const std::vector<NamedParam>& want,
                       const RoundingTolerance& tol) {
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " parameters, want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const FloatMatrix& g = got[i].value;
    const FloatMatrix& w = want[i].value;
    if (got[i].name != want[i].name) {
      return "parameter " + std::to_string(i) + " is " + got[i].name +
             ", want " + want[i].name;
    }
    if (g.rows() != w.rows() || g.cols() != w.cols()) {
      return got[i].name + " has shape " + Shape(g.rows(), g.cols()) +
             ", want " + Shape(w.rows(), w.cols());
    }
    const double limit = tol.For(w.rows(), w.cols());
    for (size_t j = 0; j < g.data().size(); ++j) {
      const double err =
          std::fabs(static_cast<double>(g.data()[j]) - w.data()[j]);
      if (!(err <= limit)) {  // Also rejects NaN.
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s[%zu] = %.9g, want %.9g (tolerance %.3g)",
                      got[i].name.c_str(), j,
                      static_cast<double>(g.data()[j]),
                      static_cast<double>(w.data()[j]), limit);
        return buf;
      }
    }
  }
  return "";
}

std::string CheckBounds(const std::map<std::string, IntervalMatrix>& one_plane,
                        const std::map<std::string, IntervalMatrix>& two_planes,
                        const std::vector<NamedParam>& want,
                        const RoundingTolerance& tol) {
  if (one_plane.size() != want.size() || two_planes.size() != want.size()) {
    return "bounds name " + std::to_string(one_plane.size()) + " / " +
           std::to_string(two_planes.size()) + " parameters, want " +
           std::to_string(want.size());
  }
  for (const NamedParam& p : want) {
    auto it1 = one_plane.find(p.name);
    auto it2 = two_planes.find(p.name);
    if (it1 == one_plane.end() || it2 == two_planes.end()) {
      return "bounds miss parameter " + p.name;
    }
    const IntervalMatrix& b1 = it1->second;
    const IntervalMatrix& b2 = it2->second;
    for (const IntervalMatrix* b : {&b1, &b2}) {
      if (b->rows() != p.value.rows() || b->cols() != p.value.cols()) {
        return p.name + " bounds have shape " + Shape(b->rows(), b->cols()) +
               ", want " + Shape(p.value.rows(), p.value.cols());
      }
    }
    const double slack = tol.For(p.value.rows(), p.value.cols());
    const auto& w = p.value.data();
    for (size_t j = 0; j < w.size(); ++j) {
      const double v = w[j];
      const double lo1 = b1.lo().data()[j], hi1 = b1.hi().data()[j];
      const double lo2 = b2.lo().data()[j], hi2 = b2.hi().data()[j];
      for (const auto& [lo, hi, planes] :
           {std::tuple{lo1, hi1, 1}, std::tuple{lo2, hi2, 2}}) {
        if (!(lo - slack <= v && v <= hi + slack)) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "%s[%zu] = %.9g outside [%.9g, %.9g] at %d plane(s)",
                        p.name.c_str(), j, v, lo, hi, planes);
          return buf;
        }
      }
      if (!(lo1 <= lo2 && hi2 <= hi1)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s[%zu]: 2-plane [%.9g, %.9g] not inside 1-plane "
                      "[%.9g, %.9g]",
                      p.name.c_str(), j, lo2, hi2, lo1, hi1);
        return buf;
      }
    }
  }
  return "";
}

std::string CheckBoundsReply(const std::string& reply, const std::string& key,
                             int planes, const std::vector<NamedParam>& want) {
  const std::vector<std::string> lines = Lines(reply);
  const std::string header =
      "snapshot " + key + " planes=" + std::to_string(planes);
  if (lines.empty() || lines[0] != header) {
    return "bounds reply header is \"" + (lines.empty() ? "" : lines[0]) +
           "\", want \"" + header + "\"";
  }
  std::set<std::string> expected;
  for (const NamedParam& p : want) {
    expected.insert(p.name + " " + Shape(p.value.rows(), p.value.cols()));
  }
  std::set<std::string> got;
  for (size_t i = 1; i < lines.size(); ++i) {
    char name[256];
    long long rows = 0, cols = 0;
    double max_width = -1.0, mean_width = -1.0;
    if (std::sscanf(lines[i].c_str(),
                    "%255s %lldx%lld max_width=%lf mean_width=%lf", name,
                    &rows, &cols, &max_width, &mean_width) != 5) {
      return "unparsable bounds row \"" + lines[i] + "\"";
    }
    if (!(max_width >= 0.0 && mean_width >= 0.0 && max_width >= mean_width &&
          std::isfinite(max_width))) {
      return "bad widths in bounds row \"" + lines[i] + "\"";
    }
    got.insert(std::string(name) + " " + Shape(rows, cols));
  }
  if (got != expected || lines.size() - 1 != want.size()) {
    return "bounds reply for " + key + " names " +
           std::to_string(lines.size() - 1) +
           " parameter rows that differ from the generated ones";
  }
  return "";
}

std::string CheckSelect(std::vector<std::string> got,
                        std::vector<std::string> expected) {
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  if (got == expected) return "";
  std::string out = "select returned {";
  for (const std::string& name : got) out += " " + name;
  out += " }, want {";
  for (const std::string& name : expected) out += " " + name;
  return out + " }";
}

std::string CheckSelectReply(const std::string& reply,
                             const std::vector<std::string>& expected,
                             int shards) {
  std::vector<std::vector<std::string>> blocks;
  for (const std::string& line : Lines(reply)) {
    if (shards > 1 && line.starts_with("-- ") && line.ends_with(" --")) {
      blocks.emplace_back();
    } else if (shards == 1 && blocks.empty()) {
      blocks.push_back({line});
    } else if (!blocks.empty()) {
      blocks.back().push_back(line);
    } else {
      return "routed select reply does not start with a shard label";
    }
  }
  if (blocks.size() != static_cast<size_t>(shards)) {
    return "select reply has " + std::to_string(blocks.size()) +
           " shard block(s), want " + std::to_string(shards);
  }
  for (const std::vector<std::string>& lines : blocks) {
    if (lines.empty()) return "empty select reply";
    std::vector<std::string> names;
    for (size_t i = 1; i < lines.size(); ++i) {
      if (!lines[i].starts_with("  ")) {
        return "unexpected select reply line \"" + lines[i] + "\"";
      }
      names.push_back(lines[i].substr(2));
    }
    const std::string header =
        std::to_string(names.size()) + " model version(s):";
    if (lines[0] != header) {
      return "select reply header is \"" + lines[0] + "\", want \"" +
             header + "\"";
    }
    if (std::string problem = CheckSelect(names, expected); !problem.empty()) {
      return problem;
    }
  }
  return "";
}

std::string CheckListReply(const std::string& reply, const Corpus& corpus) {
  std::set<std::string> expected;
  for (const CorpusVersion& v : corpus.versions) {
    expected.insert(v.name + " " + (v.parent.empty() ? "-" : v.parent) + " " +
                    std::to_string(v.snapshots.size()) + " archived");
  }
  std::set<std::string> got;
  size_t rows = 0;
  for (const std::string& line : Lines(reply)) {
    char name[128], parent[128], state[32];
    long long snapshots = 0;
    double accuracy = 0.0;
    if (std::sscanf(line.c_str(), "%127s %127s %lld %lf %31s", name, parent,
                    &snapshots, &accuracy, state) != 5) {
      return "unparsable LIST_MODELS row \"" + line + "\"";
    }
    ++rows;
    got.insert(std::string(name) + " " + parent + " " +
               std::to_string(snapshots) + " " + state);
  }
  if (got != expected || rows != corpus.versions.size()) {
    return "LIST_MODELS rows differ from the committed versions (" +
           std::to_string(rows) + " rows, want " +
           std::to_string(corpus.versions.size()) + ")";
  }
  return "";
}

std::string CheckDiskCoversLive(uint64_t disk_bytes, uint64_t live_bytes) {
  if (disk_bytes >= live_bytes) return "";
  return "on-disk archive bytes " + std::to_string(disk_bytes) +
         " < live chunk bytes " + std::to_string(live_bytes);
}

std::string CheckFsckClean(const modelhub::FsckReport& report) {
  if (report.clean()) return "";
  return "fsck found " + std::to_string(report.defects.size()) +
         " defect(s), first: " + report.defects.front();
}

}  // namespace perfbench
