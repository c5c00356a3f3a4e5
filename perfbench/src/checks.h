// Output checks. Each compares what the program returned against the
// generated inputs (computed apart from the program) or against a
// property the method must have, and returns "" when the output passes
// or a one-line description of the first problem. They take plain data,
// so tests/checks_test.cc can show each one rejecting a wrong input.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "corpus.h"
#include "dlv/fsck.h"
#include "tensor/interval.h"

namespace perfbench {

/// The rounding slack exact reads may show. DeltaKind::kSub is exact only
/// up to float rounding: storing t against base b keeps d = fl(t - b) and
/// a read returns r = fl(b' + d), where b' is b as read back. Each step
/// adds at most half an ulp of |d| <= 2M plus half an ulp of |r| ~ M,
/// i.e. at most 2 ulp(M), where M is the largest magnitude among the
/// matrices the chain passes through. A chain only links matrices of one
/// shape (similarity pairing never crosses shapes, and the corpus never
/// declares lineage between different shapes), so it is at most as long
/// as the number L of corpus matrices with that shape. Hence, per shape,
///   tol = 2 * L * ulp(M),  M = max |v| over all corpus matrices of it.
class RoundingTolerance {
 public:
  explicit RoundingTolerance(const Corpus& corpus);
  /// Builds the model from explicit matrices (tests).
  explicit RoundingTolerance(const std::vector<modelhub::NamedParam>& params);
  double For(int64_t rows, int64_t cols) const;

 private:
  void Add(const modelhub::FloatMatrix& m);
  void Finish();
  struct ShapeStats {
    double max_abs = 0.0;
    int count = 0;
    double tol = 0.0;
  };
  std::map<std::pair<int64_t, int64_t>, ShapeStats> shapes_;
};

/// The largest |got - want| of one snapshot in units of ulp(max |want|)
/// of each matrix (a reference figure; -1 when shapes differ).
double MaxErrorUlps(const std::vector<modelhub::NamedParam>& got,
                    const std::vector<modelhub::NamedParam>& want);

/// Exact read: same parameter names in the same order, same shapes, and
/// every value within the rounding tolerance of the generated one.
std::string CheckExact(const std::vector<modelhub::NamedParam>& got,
                       const std::vector<modelhub::NamedParam>& want,
                       const RoundingTolerance& tol);

/// Progressive read at 1 and 2 planes: both name exactly the generated
/// parameters with their shapes, every generated value lies inside its
/// interval (widened by the rounding tolerance, since interval sums are
/// rounded to nearest like the exact reads), and every 2-plane interval
/// nests inside its 1-plane interval, so no width grows.
std::string CheckBounds(
    const std::map<std::string, modelhub::IntervalMatrix>& one_plane,
    const std::map<std::string, modelhub::IntervalMatrix>& two_planes,
    const std::vector<modelhub::NamedParam>& want,
    const RoundingTolerance& tol);

/// A served GET_SNAPSHOT bounds reply ("snapshot <key> planes=<p>" then
/// one "<name> <rows>x<cols> max_width=.. mean_width=.." row per
/// parameter) names exactly the generated parameters and shapes, with
/// finite non-negative widths.
std::string CheckBoundsReply(const std::string& reply, const std::string& key,
                             int planes,
                             const std::vector<modelhub::NamedParam>& want);

/// A DQL select returned exactly the expected version set.
std::string CheckSelect(std::vector<std::string> got,
                        std::vector<std::string> expected);
/// The same for the served text rendering ("N model version(s):" then
/// one indented name per line). Through a router with `shards` > 1 shards
/// the reply holds one "-- shard<i> --" block per shard, each of which
/// must hold the full answer (every shard serves the whole catalog).
std::string CheckSelectReply(const std::string& reply,
                             const std::vector<std::string>& expected,
                             int shards = 1);

/// A LIST_MODELS reply has one row per corpus version with its declared
/// parent and snapshot count, all archived.
std::string CheckListReply(const std::string& reply, const Corpus& corpus);

/// On-disk archive bytes can never be fewer than the live chunk bytes the
/// manifest references.
std::string CheckDiskCoversLive(uint64_t disk_bytes, uint64_t live_bytes);

/// `dlv fsck` found no defect.
std::string CheckFsckClean(const modelhub::FsckReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
