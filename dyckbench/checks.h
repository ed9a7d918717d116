// Independent output checks for the dyckfix benchmark.
//
// Nothing here calls into dyckfix: every check is recomputed from the
// input text the benchmark generated and the bytes the program returned.
// The self-test (selftest.cc) feeds each check deliberately wrong answers.

#ifndef DYCKBENCH_CHECKS_H_
#define DYCKBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace dyckbench {

bool IsBracket(char c);

/// The bracket bytes of `text`, in order.
std::string Brackets(std::string_view text);

/// Every non-bracket byte of `text`, in order.
std::string Filler(std::string_view text);

/// True when `brackets` is a well-nested typed bracket string (stack scan).
bool StackBalanced(std::string_view brackets);

/// Untyped Dyck-1 relaxation lower bound on the distance: with `a`
/// unmatched closes and `b` unmatched opens after cancelling every
/// close against any earlier open, a + b under deletions only and
/// ceil(a/2) + ceil(b/2) when substitutions are allowed.
int64_t UntypedLowerBound(std::string_view brackets, bool substitutions);

/// True when `to` can be obtained from `from` with at most `budget`
/// operations: deletions, plus substitutions when allowed. Banded
/// alignment over the diagonals 0..budget, O(|from| * budget).
bool ReachableWithin(std::string_view from, std::string_view to,
                     int64_t budget, bool substitutions);

/// Exact distance by the O(n^3) interval dynamic program (deletions, plus
/// substitutions of either direction or type when allowed).
int64_t CubicDistance(std::string_view brackets, bool substitutions);

/// The checks every repaired text passes: filler kept byte for byte,
/// brackets balanced, reachable within `distance` edits, and
/// lower_bound <= distance <= planted (planted < 0: no upper bound known).
/// Returns "" when all hold, else the first violation.
std::string CheckRepair(std::string_view input, std::string_view output,
                        int64_t distance, bool substitutions, int64_t planted);

/// 64-bit content digest used to compare repeated answers.
uint64_t Digest(std::string_view bytes);

}  // namespace dyckbench

#endif  // DYCKBENCH_CHECKS_H_
