// Self-test for the benchmark's checkers: each check must accept a known
// correct repair and reject deliberately wrong ones (a distance off by
// one, one bracket flipped, one filler byte changed, a cubic-oracle
// mismatch). Exits 0 when every case behaves, 1 otherwise.
//
//   .bench_build/dyckbench/dyckbench_selftest

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "gen.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

/// Index of the close that matches the open at `p` in a balanced string.
size_t PartnerOf(const std::string& s, size_t p) {
  int64_t depth = 0;
  for (size_t i = p; i < s.size(); ++i) {
    const char c = s[i];
    depth += (c == '(' || c == '[' || c == '{' || c == '<') ? 1 : -1;
    if (depth == 0) return i;
  }
  return s.size();
}

/// Replaces the i-th bracket byte of `text` by its type-flipped sibling.
std::string FlipBracket(std::string text, int64_t i) {
  for (char& c : text) {
    if (!dyckbench::IsBracket(c) || i-- > 0) continue;
    static const std::string kFrom = "()[]{}<>";
    static const std::string kTo = "[]{}<>()";
    c = kTo[kFrom.find(c)];
    break;
  }
  return text;
}

}  // namespace

int main() {
  using namespace dyckbench;

  // The cubic oracle on hand-checked cases.
  Expect(CubicDistance("", true) == 0, "cubic: empty");
  Expect(CubicDistance("((", true) == 1, "cubic: (( with substitutions");
  Expect(CubicDistance("((", false) == 2, "cubic: (( deletions only");
  Expect(CubicDistance(")(", true) == 2, "cubic: )( with substitutions");
  Expect(CubicDistance("(]", true) == 1, "cubic: (] with substitutions");
  Expect(CubicDistance("([)]", false) == 2, "cubic: ([)] deletions only");
  Expect(CubicDistance("{<>}[()]", true) == 0, "cubic: balanced");

  // A known repair: delete the open at `p` of a balanced walk; deleting
  // its partner close repairs it with distance 1.
  Rng rng(12345);
  const std::string balanced = BalancedWalk(rng, 512);
  Expect(StackBalanced(balanced), "generator: walk is balanced");
  const size_t p = 200 + balanced.substr(200).find_first_of("([{<");
  const size_t q = PartnerOf(balanced, p);
  std::string fixed = balanced;
  fixed.erase(q, 1);
  fixed.erase(p, 1);
  std::string broken = balanced;
  broken.erase(p, 1);
  Rng filler_rng(7);
  const std::string input = AddFiller(filler_rng, broken);
  // The correct output: the input without the partner close (bracket
  // index q - 1 after the deletion at p), every filler byte kept.
  std::string output;
  {
    int64_t seen = 0;
    for (const char c : input) {
      if (IsBracket(c) && seen++ == static_cast<int64_t>(q) - 1) continue;
      output.push_back(c);
    }
  }
  Expect(Brackets(output) == fixed, "selftest fixture: output is the fix");
  Expect(CheckRepair(input, output, 1, false, 1).empty(),
         "correct repair accepted (deletions)");
  Expect(CheckRepair(input, output, 1, true, 1).empty(),
         "correct repair accepted (substitutions)");

  // Distance off by one, both ways.
  Expect(!CheckRepair(input, output, 0, false, 1).empty(),
         "distance one too low rejected");
  Expect(!CheckRepair(input, output, 2, false, 1).empty(),
         "distance one too high rejected by the planted bound");

  // One bracket flipped in the output.
  Expect(!CheckRepair(input, FlipBracket(output, 17), 1, true, 1).empty(),
         "flipped bracket rejected");
  Expect(!CheckRepair(input, FlipBracket(output, 0), 1, false, 1).empty(),
         "flipped first bracket rejected");

  // One filler byte changed.
  std::string tampered = output;
  for (char& c : tampered) {
    if (!IsBracket(c)) {
      c = (c == 'x') ? 'y' : 'x';
      break;
    }
  }
  Expect(!CheckRepair(input, tampered, 1, true, 1).empty(),
         "changed filler byte rejected");

  // A cubic-oracle mismatch: a claimed distance that differs from the DP.
  Rng small_rng(99);
  const std::string small = CorruptMixed(small_rng, BalancedWalk(small_rng, 64, 4), 4, 3, 0);
  const int64_t exact = CubicDistance(small, true);
  Expect(exact >= 1 && exact <= 3, "cubic: mixed corruption within planted");
  Expect(CubicDistance(small, true) != exact + 1,
         "cubic mismatch detected (claimed exact + 1)");
  Expect(CubicDistance(small, true) != exact - 1,
         "cubic mismatch detected (claimed exact - 1)");

  // Alignment: substitutions are refused under the deletions metric.
  Expect(ReachableWithin("((", "()", 1, true), "align: one substitution");
  Expect(!ReachableWithin("((", "()", 1, false), "align: no substitution");
  Expect(!ReachableWithin("(()", "()", 0, false), "align: budget too small");
  Expect(UntypedLowerBound(")((", false) == 3, "lower bound: deletions");
  Expect(UntypedLowerBound(")((", true) == 2, "lower bound: substitutions");

  // Digest: identical bytes agree, one changed byte disagrees.
  Expect(Digest(output) == Digest(std::string(output)), "digest: stable");
  Expect(Digest(output) != Digest(tampered), "digest: detects a change");

  if (failures == 0) std::printf("dyckbench selftest: all checks ok\n");
  return failures == 0 ? 0 : 1;
}
