#include "loop_source.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <vector>

namespace perfbench {

namespace {

class Gen {
 public:
  Gen(std::uint64_t seed, std::uint64_t index)
      : rng_(seed * 0x9E3779B97F4A7C15ULL ^
             (index + 1) * 0xD1B54A32D192ED03ULL) {}

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }
  bool chance(std::uint64_t one_in) { return pick(one_in) == 0; }
  template <typename T>
  const T& of(const std::vector<T>& v) {
    return v[pick(v.size())];
  }

 private:
  std::mt19937_64 rng_;
};

/// One strand: a disjoint array name space and what may be read so far.
struct Strand {
  int id = 0;
  std::vector<std::string> lines;
  std::vector<std::string> outputs;
  /// Input-only statements (read nothing of the strand); readable at [i].
  std::vector<std::string> feeders;
  /// Statements that read the base recurrence, directly or transitively;
  /// readable at [i].  Every statement except a feeder reads one of
  /// these, so after DCE every live statement still hangs off the base.
  std::vector<std::string> chained;
  /// Recurrences (a subset of `chained`), the only arrays read at [i-1].
  std::vector<std::string> recurrences;
  int next_name = 0;

  std::string fresh(char kind) {
    return std::string(1, kind) + std::to_string(id) + "n" +
           std::to_string(next_name++);
  }
};

std::string latency_suffix(Gen& g) {
  return g.chance(3) ? " @" + std::to_string(1 + g.pick(3)) : "";
}

/// A read that ties a statement to the base recurrence.
std::string chained_read(Gen& g, const Strand& s) {
  if (g.chance(2)) return g.of(s.recurrences) + "[i-1]";
  return g.of(s.chained) + "[i]";
}

/// A leaf: a permitted read, an external input, a loop-invariant scalar
/// or a constant.
std::string leaf(Gen& g, const Strand& s, bool allow_reads) {
  const std::string js = std::to_string(s.id);
  switch (g.pick(allow_reads ? 8 : 5)) {
    case 0: return "X" + js + "[i]";
    case 1: return "X" + js + "[i+1]";  // old-time-step input: no edge
    case 2: return "Y" + js + "[i-2]";  // never written: no edge
    case 3: return "s" + js;
    case 4: return std::to_string(1 + g.pick(9));
    case 5:
      if (!s.feeders.empty()) return g.of(s.feeders) + "[i]";
      [[fallthrough]];
    default: return chained_read(g, s);
  }
}

/// Expression text with fold / identity / strength-reduction bait.
std::string expr(Gen& g, const Strand& s, int depth, bool allow_reads) {
  if (depth <= 0 || g.chance(3)) return leaf(g, s, allow_reads);
  const std::string a = expr(g, s, depth - 1, allow_reads);
  switch (g.pick(12)) {
    case 0:
    case 1: return "(" + a + " + " + expr(g, s, depth - 1, allow_reads) + ")";
    case 2: return "(" + a + " - " + expr(g, s, depth - 1, allow_reads) + ")";
    case 3:
    case 4: return "(" + a + " * " + expr(g, s, depth - 1, allow_reads) + ")";
    case 5: return "(" + a + " * 1)";   // exact identity
    case 6: return "(" + a + " / 1)";   // exact identity
    case 7: return "(" + a + " - 0)";   // exact identity
    case 8: return "(- - " + a + ")";   // exact identity
    case 9: return "(" + a + " * 2)";   // strength-reduction bait
    case 10: return "(" + a + " / 4)";  // exact-reciprocal bait
    default:
      return "(" + a + " + (" + std::to_string(1 + g.pick(4)) + " * " +
             std::to_string(1 + g.pick(4)) + "))";  // constant-fold bait
  }
}

const char* plus_or_minus(Gen& g) { return g.chance(2) ? " + " : " - "; }

/// Self term of a recurrence: distance 1, sometimes with a distance-2
/// companion — never distance 2 alone.
std::string self_term(Gen& g, const std::string& name) {
  if (g.chance(4)) return "(" + name + "[i-1] + " + name + "[i-2])";
  return name + "[i-1]";
}

void add_feeder(Gen& g, Strand& s) {
  const std::string name = s.fresh('F');
  s.lines.push_back("  " + name + "[i] = " + expr(g, s, 2, false) +
                    latency_suffix(g));
  s.feeders.push_back(name);
}

/// The base recurrence reads every feeder, so no feeder is left isolated
/// (an isolated statement would fission into a one-node strand whose
/// structure repeats across programs).
void add_base(Gen& g, Strand& s) {
  const std::string name = "A" + std::to_string(s.id);
  s.recurrences.push_back(name);
  s.chained.push_back(name);
  std::string rhs = self_term(g, name) + plus_or_minus(g) + expr(g, s, 2, true);
  for (const std::string& f : s.feeders) rhs += " + " + f + "[i] * 0.5";
  s.lines.push_back("  " + name + "[i] = " + rhs + latency_suffix(g));
  if (g.chance(2)) s.outputs.push_back(name);
}

/// A recurrence reading an earlier recurrence directly, so the strand's
/// Cyclic subset stays connected.  `coupled` closes a two-statement
/// cycle through a partner statement defined right after it; `readable`
/// = false makes it dead-code bait that nothing else reads.
void add_recurrence(Gen& g, Strand& s, bool readable, bool coupled) {
  const std::string parent = g.of(s.recurrences);
  const std::string name = s.fresh(readable ? 'R' : 'G');
  const std::string partner = coupled ? s.fresh('Q') : "";
  std::string rhs = self_term(g, name) + plus_or_minus(g) + parent +
                    (g.chance(2) ? "[i-1]" : "[i]") + " * 0.5 + " +
                    expr(g, s, 1, true);
  if (coupled) rhs += " + " + partner + "[i-1] * 0.25";
  s.lines.push_back("  " + name + "[i] = " + rhs + latency_suffix(g));
  if (coupled) {
    s.lines.push_back("  " + partner + "[i] = " + name + "[i]" +
                      plus_or_minus(g) + expr(g, s, 1, true) +
                      latency_suffix(g));
  }
  if (!readable) return;
  s.recurrences.push_back(name);
  s.chained.push_back(name);
  if (coupled) {
    s.recurrences.push_back(partner);
    s.chained.push_back(partner);
  }
  if (g.chance(3)) s.outputs.push_back(name);
}

void add_consumer(Gen& g, Strand& s) {
  const std::string name = s.fresh('C');
  s.lines.push_back("  " + name + "[i] = " + chained_read(g, s) +
                    plus_or_minus(g) + expr(g, s, 3, true) + latency_suffix(g));
  s.chained.push_back(name);
  s.outputs.push_back(name);
}

void add_if(Gen& g, Strand& s) {
  const std::string name = s.fresh('T');
  const char* cmp = g.chance(2) ? " > " : " <= ";
  std::string text = "  if " + g.of(s.recurrences) + "[i-1]" + cmp +
                     std::to_string(1 + g.pick(5)) + " {\n    " + name +
                     "[i] = " + expr(g, s, 2, true) + latency_suffix(g) +
                     "\n  }";
  if (g.chance(2)) {
    text += " else {\n    " + name + "[i] = " + expr(g, s, 1, true) + "\n  }";
  }
  s.lines.push_back(text);
  s.chained.push_back(name);
  s.outputs.push_back(name);
}

Strand make_strand(Gen& g, int id, int budget) {
  Strand s;
  s.id = id;
  // Feeders come first so the base recurrence can read all of them.
  const int feeders = static_cast<int>(g.pick(1 + budget / 4));
  for (int k = 0; k < feeders; ++k) add_feeder(g, s);
  add_base(g, s);
  while (static_cast<int>(s.lines.size()) < budget) {
    const bool room_for_two = static_cast<int>(s.lines.size()) + 2 <= budget;
    switch (g.pick(10)) {
      case 0:
      case 1:
      case 2: add_recurrence(g, s, true, room_for_two && g.chance(2)); break;
      case 3:
      case 4:
      case 5: add_consumer(g, s); break;
      case 6:
      case 7: add_if(g, s); break;
      default: add_recurrence(g, s, false, false); break;  // dead bait
    }
  }
  // Every strand is observable, so DCE never empties the program.
  if (s.outputs.empty()) s.outputs.push_back(s.chained.back());
  return s;
}

}  // namespace

std::vector<int> statement_counts() {
  std::vector<int> counts;
  for (int j = 0; j < 16; ++j) {
    counts.push_back(static_cast<int>(std::lround(4.0 * std::pow(10.0, j / 15.0))));
  }
  return counts;
}

std::string generate_loop_source(std::uint64_t seed, std::uint64_t index,
                                 int statements) {
  Gen g(seed, index);
  const int total = std::clamp(statements, 4, 40);
  const int strands = 1 + static_cast<int>(g.pick(std::min(3, total / 4)));

  std::vector<int> budget(static_cast<std::size_t>(strands), 4);
  for (int extra = total - 4 * strands; extra > 0; --extra) {
    ++budget[g.pick(budget.size())];
  }
  std::vector<Strand> parts;
  for (int j = 0; j < strands; ++j) {
    parts.push_back(make_strand(g, j, budget[static_cast<std::size_t>(j)]));
  }

  std::ostringstream src;
  // About half the programs declare observability (DCE armed: dead-code
  // bait and unlisted statements are removed); the rest leave everything
  // observable.
  if (g.chance(2)) {
    src << "out ";
    bool first = true;
    for (const Strand& s : parts) {
      for (const std::string& o : s.outputs) {
        src << (first ? "" : ", ") << o;
        first = false;
      }
    }
    src << "\n";
  }
  // Interleave the strands' statements, each strand keeping its own
  // order: fission has to find the split, it is not handed one per block.
  src << "for i:\n";
  std::vector<std::size_t> cursor(parts.size(), 0);
  std::size_t left = 0;
  for (const Strand& s : parts) left += s.lines.size();
  for (; left > 0; --left) {
    std::size_t j = g.pick(parts.size());
    while (cursor[j] == parts[j].lines.size()) j = (j + 1) % parts.size();
    src << parts[j].lines[cursor[j]++] << "\n";
  }
  return src.str();
}

}  // namespace perfbench
