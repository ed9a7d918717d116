#include "checks.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

namespace dyckbench {
namespace {

bool IsOpen(char c) { return c == '(' || c == '[' || c == '{' || c == '<'; }

char Partner(char open) {
  switch (open) {
    case '(': return ')';
    case '[': return ']';
    case '{': return '}';
    default: return '>';
  }
}

/// Cost of making (left, right) a matched pair: 0 if it already is; with
/// substitutions 1 when one end can be rewritten, 2 for close...open.
int PairCost(char left, char right, bool substitutions) {
  const bool lo = IsOpen(left);
  const bool ro = IsOpen(right);
  if (lo && !ro && Partner(left) == right) return 0;
  if (!substitutions) return std::numeric_limits<int>::max() / 4;
  if (!lo && ro) return 2;
  return 1;
}

}  // namespace

bool IsBracket(char c) {
  switch (c) {
    case '(': case ')': case '[': case ']':
    case '{': case '}': case '<': case '>':
      return true;
    default:
      return false;
  }
}

std::string Brackets(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (IsBracket(c)) out.push_back(c);
  }
  return out;
}

std::string Filler(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (!IsBracket(c)) out.push_back(c);
  }
  return out;
}

bool StackBalanced(std::string_view brackets) {
  std::vector<char> stack;
  for (const char c : brackets) {
    if (IsOpen(c)) {
      stack.push_back(Partner(c));
    } else if (stack.empty() || stack.back() != c) {
      return false;
    } else {
      stack.pop_back();
    }
  }
  return stack.empty();
}

int64_t UntypedLowerBound(std::string_view brackets, bool substitutions) {
  int64_t unmatched_closes = 0;
  int64_t open = 0;
  for (const char c : brackets) {
    if (IsOpen(c)) {
      ++open;
    } else if (open > 0) {
      --open;
    } else {
      ++unmatched_closes;
    }
  }
  if (!substitutions) return unmatched_closes + open;
  return (unmatched_closes + 1) / 2 + (open + 1) / 2;
}

bool ReachableWithin(std::string_view from, std::string_view to,
                     int64_t budget, bool substitutions) {
  const int64_t n = static_cast<int64_t>(from.size());
  const int64_t m = static_cast<int64_t>(to.size());
  if (budget < 0 || m > n || n - m > budget) return false;
  // cost[k] for diagonal k = i - j (deletions so far), row by row over j.
  constexpr int64_t kInf = std::numeric_limits<int64_t>::max() / 4;
  const int64_t width = n - m;
  std::vector<int64_t> prev(width + 1, kInf), cur(width + 1, kInf);
  // j = 0: i deletions.
  for (int64_t k = 0; k <= width; ++k) prev[k] = k;
  for (int64_t j = 1; j <= m; ++j) {
    for (int64_t k = 0; k <= width; ++k) {
      const int64_t i = j + k;
      // Align from[i-1] with to[j-1] (diagonal k of row j-1) ...
      int64_t best = kInf;
      if (prev[k] < kInf) {
        if (from[i - 1] == to[j - 1]) {
          best = prev[k];
        } else if (substitutions) {
          best = prev[k] + 1;
        }
      }
      // ... or delete from[i-1] (diagonal k-1 of this row).
      if (k > 0 && cur[k - 1] < kInf) best = std::min(best, cur[k - 1] + 1);
      cur[k] = best;
    }
    std::swap(prev, cur);
    std::fill(cur.begin(), cur.end(), kInf);
  }
  return prev[width] <= budget;
}

int64_t CubicDistance(std::string_view brackets, bool substitutions) {
  const int64_t n = static_cast<int64_t>(brackets.size());
  if (n == 0) return 0;
  // a[i * (n + 1) + j] = distance of brackets[i, j).
  std::vector<int> a(static_cast<size_t>((n + 1) * (n + 1)), 0);
  const auto at = [&](int64_t i, int64_t j) -> int& {
    return a[static_cast<size_t>(i * (n + 1) + j)];
  };
  for (int64_t len = 1; len <= n; ++len) {
    for (int64_t i = 0; i + len <= n; ++i) {
      const int64_t j = i + len;
      int best = at(i + 1, j) + 1;  // delete brackets[i]
      for (int64_t r = i + 1; r < j; ++r) {
        const int pair = PairCost(brackets[i], brackets[r], substitutions);
        best = std::min(best, pair + at(i + 1, r) + at(r + 1, j));
      }
      at(i, j) = best;
    }
  }
  return at(0, n);
}

std::string CheckRepair(std::string_view input, std::string_view output,
                        int64_t distance, bool substitutions,
                        int64_t planted) {
  if (Filler(input) != Filler(output)) return "non-bracket bytes changed";
  const std::string in = Brackets(input);
  const std::string out = Brackets(output);
  if (!StackBalanced(out)) return "output brackets are not balanced";
  if (!ReachableWithin(in, out, distance, substitutions)) {
    return "output not reachable within distance " + std::to_string(distance);
  }
  const int64_t lower = UntypedLowerBound(in, substitutions);
  if (distance < lower) {
    return "distance " + std::to_string(distance) +
           " below the untyped lower bound " + std::to_string(lower);
  }
  if (planted >= 0 && distance > planted) {
    return "distance " + std::to_string(distance) + " above the " +
           std::to_string(planted) + " planted corruptions";
  }
  return "";
}

uint64_t Digest(std::string_view bytes) {
  // FNV-1a over 8-byte words, then a splitmix64 finalizer.
  uint64_t h = 0xCBF29CE484222325ull ^ bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes.data() + i, 8);
    h = (h ^ word) * 0x100000001B3ull;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(bytes[i])) * 0x100000001B3ull;
  }
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace dyckbench
