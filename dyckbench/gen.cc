#include "gen.h"

#include <algorithm>
#include <cmath>

namespace dyckbench {
namespace {

constexpr char kOpen[] = {'(', '[', '{', '<'};
constexpr char kClose[] = {')', ']', '}', '>'};
constexpr char kFiller[] = "abcdefghijklmnopqrstuvwxyz    ,.;:=+-*/_\n";

int TypeOf(char c) {
  switch (c) {
    case '(': case ')': return 0;
    case '[': case ']': return 1;
    case '{': case '}': return 2;
    default: return 3;
  }
}

bool IsOpen(char c) { return c == '(' || c == '[' || c == '{' || c == '<'; }

/// Nesting depth of each token of a balanced string: an open's depth after
/// it opens, a close's depth before it closes (so partners share a depth).
std::vector<int64_t> Depths(const std::string& s) {
  std::vector<int64_t> depth(s.size());
  int64_t h = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (IsOpen(s[i])) {
      depth[i] = ++h;
    } else {
      depth[i] = h--;
    }
  }
  return depth;
}

/// One position in each of k of the document's `blocks` blocks (spread
/// evenly), in descending order: a token satisfying `want` whose depth is
/// exactly max(1, cap/8), searched from a random offset in the block; the
/// first token satisfying `want` if the block never reaches that depth.
template <typename Pred>
std::vector<int64_t> SitePositions(Rng& rng, const std::string& s, int blocks,
                                   int k, Pred want) {
  const std::vector<int64_t> depth = Depths(s);
  const int64_t n = static_cast<int64_t>(s.size());
  const int64_t target = std::max<int64_t>(1, DepthCap(n) / 8);
  const int64_t block_len = BlockLength(n, blocks);
  std::vector<int64_t> positions;
  for (int site = k - 1; site >= 0; --site) {
    const int block = site * blocks / k;
    const int64_t begin = block * block_len;
    const int64_t end = block == blocks - 1 ? n : begin + block_len;
    const int64_t len = end - begin;
    const int64_t offset = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(len)));
    int64_t chosen = -1;
    for (int64_t i = 0; i < len && chosen < 0; ++i) {
      const int64_t p = begin + (offset + i) % len;
      if (depth[p] == target && want(s[p])) chosen = p;
    }
    for (int64_t p = begin; p < end && chosen < 0; ++p) {
      if (want(s[p])) chosen = p;
    }
    positions.push_back(chosen < 0 ? begin : chosen);
  }
  return positions;
}

/// Balanced walk of `n` tokens whose depth is reflected at `cap`.
void AppendWalk(Rng& rng, int64_t n, int64_t cap, std::string* out) {
  std::vector<int> stack;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t h = static_cast<int64_t>(stack.size());
    const int64_t remaining = n - i;
    bool open;
    if (h == remaining || h == cap) {
      open = false;
    } else if (h == 0) {
      open = true;
    } else {
      open = (rng.Next() & 1) != 0;
    }
    if (open) {
      const int t = static_cast<int>(rng.Below(4));
      stack.push_back(t);
      out->push_back(kOpen[t]);
    } else {
      out->push_back(kClose[stack.back()]);
      stack.pop_back();
    }
  }
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t bound) { return Next() % bound; }

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return rng.Next();
}

int64_t DepthCap(int64_t n) {
  int64_t cap = static_cast<int64_t>(std::sqrt(static_cast<double>(n)));
  while (cap * cap < n) ++cap;
  return std::max<int64_t>(cap, 1);
}

int64_t BlockLength(int64_t n, int blocks) {
  return (n / blocks) & ~int64_t{1};
}

std::string BalancedWalk(Rng& rng, int64_t n, int blocks) {
  const int64_t cap = DepthCap(n);
  const int64_t block_len = BlockLength(n, blocks);
  std::string out;
  out.reserve(static_cast<size_t>(n));
  for (int b = 0; b < blocks; ++b) {
    AppendWalk(rng, b == blocks - 1 ? n - b * block_len : block_len, cap, &out);
  }
  return out;
}

std::string DeleteOpens(Rng& rng, const std::string& balanced, int blocks,
                        int k) {
  std::string s = balanced;
  for (const int64_t p : SitePositions(rng, s, blocks, k, IsOpen)) {
    s.erase(static_cast<size_t>(p), 1);
  }
  return s;
}

std::string CorruptMixed(Rng& rng, const std::string& balanced, int blocks,
                         int k, int first_kind) {
  std::string s = balanced;
  int site = k;
  for (const int64_t p :
       SitePositions(rng, s, blocks, k, [](char) { return true; })) {
    const int t = TypeOf(s[p]);
    switch (static_cast<Corruption>((first_kind + --site) % 4)) {
      case Corruption::kDeleteToken:
        s.erase(static_cast<size_t>(p), 1);
        break;
      case Corruption::kInsertToken: {
        const int nt = static_cast<int>(rng.Below(4));
        s.insert(s.begin() + p, (rng.Next() & 1) ? kOpen[nt] : kClose[nt]);
        break;
      }
      case Corruption::kFlipDirection:
        s[p] = IsOpen(s[p]) ? kClose[t] : kOpen[t];
        break;
      case Corruption::kFlipType: {
        const int nt = (t + 1 + static_cast<int>(rng.Below(3))) % 4;
        s[p] = IsOpen(s[p]) ? kOpen[nt] : kClose[nt];
        break;
      }
    }
  }
  return s;
}

std::string AddFiller(Rng& rng, const std::string& brackets) {
  constexpr uint64_t kFillerSize = sizeof(kFiller) - 1;
  std::string out;
  out.reserve(brackets.size() * 2 + 2);
  for (const char c : brackets) {
    for (uint64_t run = rng.Below(3); run > 0; --run) {
      out.push_back(kFiller[rng.Below(kFillerSize)]);
    }
    out.push_back(c);
  }
  out.push_back('\n');
  return out;
}

Zipf::Zipf(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
  double total = 0;
  for (int64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
}

}  // namespace dyckbench
