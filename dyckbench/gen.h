// Seeded input generation for the dyckfix benchmark.
//
// Everything the program under test receives is produced here from the
// run's --seed: bracket documents (a depth-capped random walk), planted
// corruptions with a known distance bound, non-bracket filler, and Zipf
// draws over request pools. See README.md for the parameters and the
// proofs behind the exact-distance constructions.

#ifndef DYCKBENCH_GEN_H_
#define DYCKBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dyckbench {

/// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound);

 private:
  uint64_t state_;
};

/// Derives an independent stream for (seed, stream) so workloads, pools
/// and keystroke rounds never share random numbers.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// The four corruption kinds of the mixed-corruption workloads.
enum class Corruption {
  kDeleteToken,    // drop one bracket
  kInsertToken,    // add one random bracket
  kFlipDirection,  // '(' <-> ')' (same type)
  kFlipType,       // '(' -> '[' (same direction)
};

struct Document {
  std::string text;     // what the program receives
  int64_t tokens = 0;   // bracket tokens in text
  int planted = 0;      // corruptions applied (distance upper bound)
  int deleted_opens = 0;  // opens-only deletions (exact deletion distance)
};

/// Balanced bracket string of `n` tokens (n even) made of `blocks`
/// consecutive top-level blocks of BlockLength(n, blocks) tokens (the last
/// takes the rest). Each block is a random walk over the four bracket
/// types whose depth is reflected at DepthCap(n), so nesting depth grows
/// like sqrt(n) and corruptions in different blocks share no ancestors.
std::string BalancedWalk(Rng& rng, int64_t n, int blocks = 1);

/// ceil(sqrt(n)): the depth cap of BalancedWalk.
int64_t DepthCap(int64_t n);

/// Even length of each block but the last.
int64_t BlockLength(int64_t n, int blocks);

/// Deletes `k` <= blocks opening brackets of a BalancedWalk, one in each of
/// k blocks spread evenly, each at depth max(1, DepthCap(n)/8). The
/// deletion distance of the result is exactly k (README.md, "Exact
/// distances").
std::string DeleteOpens(Rng& rng, const std::string& balanced, int blocks,
                        int k);

/// Applies `k` <= blocks corruptions, placed as in DeleteOpens, of the four
/// kinds in rotation starting at `first_kind`. The distance under
/// deletions and substitutions is at most k.
std::string CorruptMixed(Rng& rng, const std::string& balanced, int blocks,
                         int k, int first_kind);

/// Interleaves non-bracket filler: before each bracket a run of 0..2 bytes
/// (mean 1 filler byte per bracket) from a letters/space/newline set.
std::string AddFiller(Rng& rng, const std::string& brackets);

/// The Zipf law over ranks 0..n-1: P(rank r) ~ 1/(r+1)^s.
class Zipf {
 public:
  Zipf(int64_t n, double s);
  /// P(rank <= r).
  double Cdf(int64_t r) const { return cdf_[static_cast<size_t>(r)]; }

 private:
  std::vector<double> cdf_;
};

}  // namespace dyckbench

#endif  // DYCKBENCH_GEN_H_
