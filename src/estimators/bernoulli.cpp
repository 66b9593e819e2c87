#include "estimators/bernoulli.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/logmath.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "estimators/context.hpp"
#include "estimators/segments.hpp"

namespace botmeter::estimators {

namespace {

/// Fraction of the (detected) NXD ceiling beyond which the coverage count is
/// considered saturated and the adaptive method switches to the
/// forwarded-count statistic.
constexpr double kSaturationFraction = 0.7;

/// Histogram of "how many start positions cover this NXD" — min(a_d,
/// theta_q) — over all NXD positions of the pool. The coverage expectation
/// only depends on these weights, so the histogram collapses the O(P) sum
/// to O(distinct weights).
std::map<std::uint32_t, std::uint32_t> coverage_weight_histogram(
    const dga::EpochPool& pool, const dga::DgaConfig& config) {
  std::map<std::uint32_t, std::uint32_t> histogram;
  const std::uint32_t size = pool.size();
  const auto& valid = pool.valid_positions;
  if (valid.empty()) throw ConfigError("BernoulliEstimator: pool has no arcs");

  // Walk each arc once: depths run 1..arc_len, so weights are
  // min(1..arc_len, theta_q).
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const std::uint32_t boundary = valid[i];
    const std::uint32_t next = valid[(i + 1) % valid.size()];
    const std::uint32_t arc_len =
        (next + size - boundary) % size == 0
            ? size - 1  // single valid position: one arc spanning the rest
            : (next + size - boundary) % size - 1;
    if (arc_len == 0) continue;
    const std::uint32_t capped = std::min(arc_len, config.barrel_size);
    // Depths 1..capped each appear once; depths capped+1..arc_len all share
    // weight theta_q (== barrel_size, but never more than `capped`).
    for (std::uint32_t depth = 1; depth <= capped; ++depth) {
      ++histogram[depth];
    }
    if (arc_len > capped) {
      histogram[config.barrel_size] += arc_len - capped;
    }
  }
  return histogram;
}

/// Count of distinct observed NXD positions: a pool-sized bitmap counts each
/// position on its first sighting. Positions past the pool (only a corrupted
/// stream carries them) are deduplicated on the side so the count stays the
/// plain distinct count of the stream.
double observed_distinct_nxds(const EpochObservation& obs) {
  std::vector<bool> seen(obs.pool->size());
  std::vector<std::uint32_t> outside;
  std::uint64_t distinct = 0;
  for (const detect::MatchedLookup& lookup : obs.lookups) {
    if (lookup.is_valid_domain) continue;
    if (lookup.pool_position >= seen.size()) {
      outside.push_back(lookup.pool_position);
    } else if (!seen[lookup.pool_position]) {
      seen[lookup.pool_position] = true;
      ++distinct;
    }
  }
  std::sort(outside.begin(), outside.end());
  distinct += static_cast<std::uint64_t>(
      std::unique(outside.begin(), outside.end()) - outside.begin());
  return static_cast<double>(distinct);
}

/// Count of observed (forwarded) NXD lookups, duplicates included.
double observed_nxd_lookups(const EpochObservation& obs) {
  std::uint64_t count = 0;
  for (const detect::MatchedLookup& lookup : obs.lookups) {
    if (!lookup.is_valid_domain) ++count;
  }
  return static_cast<double>(count);
}

/// Generic increasing-function inversion by doubling + bisection, capped.
template <typename F>
double invert_increasing(F&& expectation, double observed) {
  if (observed <= 0.0) return 0.0;
  constexpr double kMaxPopulation = 1e8;
  double lo = 0.0;
  double hi = 1.0;
  while (expectation(hi) < observed) {
    hi *= 2.0;
    if (hi >= kMaxPopulation) return kMaxPopulation;  // saturated statistic
  }
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-9 * std::max(hi, 1.0);
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (expectation(mid) < observed) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

using WeightHistogram = std::map<std::uint32_t, std::uint32_t>;

/// Flattened, precomputed form of the coverage-weight histogram. Entries
/// keep the histogram's ascending-weight order so sums accumulate in exactly
/// the order the map-based code used, and the precomputed members are the
/// same subexpressions that code evaluated — `log1p(-(weight / pool_size))`
/// never interacts with the bisection's `n`, so hoisting it out of the
/// expectation is bit-exact. The histogram walk is O(pool); a bisection
/// evaluates the expectation a few hundred times, so building the table once
/// (per call, or once per epoch via EstimationContext) is the dominant win.
struct CoverageTables {
  struct Entry {
    double weight;       // min(a_d, theta_q)
    double count;        // positions sharing this weight
    double log1p_neg_p;  // log1p(-(weight / pool_size))
  };
  std::vector<Entry> entries;
  double pool_size = 0.0;
};

CoverageTables build_coverage_tables(const dga::EpochPool& pool,
                                     const dga::DgaConfig& config) {
  CoverageTables tables;
  tables.pool_size = pool.size();
  const WeightHistogram histogram = coverage_weight_histogram(pool, config);
  tables.entries.reserve(histogram.size());
  for (const auto& [weight, count] : histogram) {
    const double w = static_cast<double>(weight);
    tables.entries.push_back(
        {w, static_cast<double>(count), std::log1p(-(w / tables.pool_size))});
  }
  return tables;
}

/// Precomputed renewal horizons `1 - (k-1) * ttl_fraction` — the fraction of
/// the epoch within which the k-th forward of one NXD can still happen.
/// Capped: past the cap (only reachable when the TTL is a vanishing fraction
/// of the epoch) horizons are computed on the fly with the same expression.
struct RenewalTable {
  double ttl_fraction = 0.0;
  std::vector<double> horizons;
};

RenewalTable build_renewal_table(double ttl_fraction) {
  constexpr std::size_t kMaxHorizons = 1u << 16;
  RenewalTable table;
  table.ttl_fraction = ttl_fraction;
  for (std::int64_t k = 1; table.horizons.size() < kMaxHorizons; ++k) {
    const double horizon = 1.0 - static_cast<double>(k - 1) * ttl_fraction;
    if (horizon <= 0.0) break;
    table.horizons.push_back(horizon);
  }
  return table;
}

double expected_coverage_from_tables(const CoverageTables& tables, double n,
                                     double keep) {
  double expected = 0.0;
  for (const CoverageTables::Entry& e : tables.entries) {
    // (1-p)^n for real n via exp/log; p < 1 because weight < pool size.
    const double miss_all = std::exp(n * e.log1p_neg_p);
    expected += e.count * (1.0 - miss_all) * keep;
  }
  return expected;
}

/// Lookups of NXD d arrive (across the population, activations uniform over
/// the epoch) as an approximately Poisson stream with mean m = n * p_d per
/// epoch. Negative caching turns the forwarded sub-stream into a renewal
/// process: the k-th forward happens at (k-1) TTL blocks plus a
/// Gamma(k, rate) wait, so over the normalised epoch [0, 1]
///   E[forwards] = sum_k P(Gamma(k) <= 1 - (k-1) f)
///               = sum_k P(Poisson(m (1 - (k-1) f)) >= k),  f = TTL/epoch —
/// exact at every TTL, including the short-TTL regime with many windows.
double renewal_count(const RenewalTable& renewal, double mean_queries) {
  double total = 0.0;
  for (std::size_t i = 0;; ++i) {
    const auto k = static_cast<std::int64_t>(i) + 1;
    const double horizon =
        i < renewal.horizons.size()
            ? renewal.horizons[i]
            : 1.0 - static_cast<double>(k - 1) * renewal.ttl_fraction;
    if (horizon <= 0.0) break;
    const double tail = poisson_tail(mean_queries * horizon, k);
    total += tail;
    if (tail < 1e-12 && static_cast<double>(k) > mean_queries) break;
  }
  return total;
}

double expected_forwards_from_tables(const CoverageTables& tables,
                                     const RenewalTable& renewal, double n,
                                     double keep) {
  double expected = 0.0;
  for (const CoverageTables::Entry& e : tables.entries) {
    const double mean_queries = n * e.weight / tables.pool_size;
    expected += e.count * keep * renewal_count(renewal, mean_queries);
  }
  return expected;
}

/// Invert the coverage expectation, memoizing the bisection per observed
/// statistic when a context is attached. The solve is a pure function of
/// (observed, keep) given the tables, so a memo hit returns exactly the bits
/// a fresh bisection would compute.
double invert_coverage_tables(const CoverageTables& tables, double observed,
                              double keep, EstimationContext* ctx) {
  const auto solve = [&] {
    return invert_increasing(
        [&](double n) {
          return expected_coverage_from_tables(tables, n, keep);
        },
        observed);
  };
  if (ctx != nullptr) {
    return ctx->memoized("bernoulli.invert_coverage", observed, keep, solve);
  }
  return solve();
}

double invert_forwards_tables(const CoverageTables& tables,
                              const RenewalTable& renewal, double observed,
                              double keep, EstimationContext* ctx) {
  const auto solve = [&] {
    return invert_increasing(
        [&](double n) {
          return expected_forwards_from_tables(tables, renewal, n, keep);
        },
        observed);
  };
  if (ctx != nullptr) {
    return ctx->memoized("bernoulli.invert_forwards", observed, keep, solve);
  }
  return solve();
}

/// Coverage tables for this problem: shared via the context when one is
/// attached, otherwise built locally into `local`.
const CoverageTables& coverage_tables_for(EstimationContext* ctx,
                                          const dga::EpochPool& pool,
                                          const dga::DgaConfig& config,
                                          std::unique_ptr<CoverageTables>& local) {
  if (ctx != nullptr) {
    return ctx->table<CoverageTables>("bernoulli.coverage", [&] {
      return std::make_unique<CoverageTables>(
          build_coverage_tables(pool, config));
    });
  }
  local = std::make_unique<CoverageTables>(build_coverage_tables(pool, config));
  return *local;
}

const RenewalTable& renewal_table_for(EstimationContext* ctx,
                                      double ttl_fraction,
                                      std::unique_ptr<RenewalTable>& local) {
  if (ctx != nullptr) {
    return ctx->table<RenewalTable>("bernoulli.renewal", [&] {
      return std::make_unique<RenewalTable>(build_renewal_table(ttl_fraction));
    });
  }
  local = std::make_unique<RenewalTable>(build_renewal_table(ttl_fraction));
  return *local;
}

double ttl_fraction_for(Duration negative_ttl, Duration window_length,
                        const char* where) {
  if (negative_ttl.millis() <= 0 || window_length.millis() <= 0) {
    throw ConfigError(std::string(where) + ": TTL and epoch must be positive");
  }
  return static_cast<double>(negative_ttl.millis()) /
         static_cast<double>(window_length.millis());
}

/// Length of the run a bot starting at each pool position walks: the NXDs
/// up to the next valid position, capped at theta_q (0 on a valid position).
/// Two backward laps around the ring: the first settles every position up
/// to the last valid one, the second carries the wrapped continuation past
/// position 0 into the positions behind it. Requires a valid position.
std::vector<std::uint32_t> run_lengths(const dga::EpochPool& pool,
                                       std::uint32_t theta_q) {
  const std::uint32_t size = pool.size();
  std::vector<bool> valid(size);
  for (const std::uint32_t pos : pool.valid_positions) valid[pos] = true;
  std::vector<std::uint32_t> run(size, 0);
  for (int lap = 0; lap < 2; ++lap) {
    for (std::uint32_t pos = size; pos-- > 0;) {
      const std::uint32_t next = run[pos + 1 == size ? 0 : pos + 1];
      run[pos] = valid[pos] ? 0 : (next < theta_q ? next + 1 : theta_q);
    }
  }
  return run;
}

/// Sorts v by key. Insertion sort, linear when every element already sits
/// near its place (bots scattered into their t0 buckets, arrivals gathered
/// in t0 order); past a few shifts per element it hands over to std::sort,
/// so a poorly ordered input still costs O(n log n).
template <typename T, typename Key>
void sort_nearly_sorted(std::vector<T>& v, Key key) {
  std::size_t budget = 8 * v.size();
  for (std::size_t i = 1; i < v.size(); ++i) {
    const T x = v[i];
    std::size_t j = i;
    for (; j > 0 && key(v[j - 1]) > key(x) && budget > 0; --j, --budget) {
      v[j] = v[j - 1];
    }
    v[j] = x;
    if (budget == 0) {
      std::sort(v.begin(), v.end(),
                [&](const T& a, const T& b) { return key(a) < key(b); });
      return;
    }
  }
}

/// One bootstrap resample of the forwarded-count statistic, swept domain by
/// domain around the ring.
///
/// Bot b starts at s_b at time t0_b and reaches domain s_b + k at
/// t0_b + k * step for k < run[s_b]. A domain forwards the greedy chain of
/// its arrivals: the earliest, then the earliest at or after the previous
/// forward plus the negative TTL, until no arrival is left inside the
/// window. The bots active at the current domain sit in a bitset over their
/// t0 rank, updated by one toggle as each run enters and leaves; a summary
/// bitset of its non-empty words keeps the walk to the next active rank
/// short however sparse the set is.
///
/// A domain whose arrivals are sparse on the TTL scale forwards most of
/// them, so its chain comes from sorting them whole. A dense domain is
/// answered link by link instead: every arrival lies in [t0, t0 + reach],
/// so a link only scans the active bots with t0 >= bound - reach and stops
/// at the first t0 past the best arrival found, skipping the bots the TTL
/// blocks. Both compute the same chain over the same arrivals.
///
/// Between two domains with no run entering or leaving, every arrival moves
/// up by exactly one step, and the greedy chain is invariant under a common
/// shift: the same bots forward, minus those whose arrival passes the
/// window's end. So the chain's member ranks carry over from domain to
/// domain, and a domain with no toggle only drops the members now past the
/// window. A toggle reaches only part of the chain: a run entering with
/// arrival t0 leaves the members arriving before t0 in place, and a leaving
/// bot that never forwarded changes nothing, so only the chain's suffix
/// from the first link a toggle reaches is rebuilt. Doubles shift only up
/// to rounding, so each decision's distance from a tie is recorded (an
/// arrival the bound blocks, the chosen arrival against the bound, the
/// runner-up against the chosen one), and the chain carries over only while
/// the smallest of them clears kShiftGuard; otherwise the next domain
/// builds it afresh.
class ForwardSweep {
 public:
  ForwardSweep(const std::vector<std::uint32_t>& run, std::uint32_t theta_q,
               double step_fraction, double ttl_fraction)
      : run_(run),
        step_(step_fraction),
        ttl_(ttl_fraction),
        // Slack far above the rounding of t0 + k * step.
        reach_(static_cast<double>(theta_q) * step_fraction * (1.0 + 1e-9) +
               1e-9) {}

  /// Draws `bots` (start, then t0, per bot — the order the statistic has
  /// always been drawn in) and returns the kept forwards; the thinning draws
  /// run in domain order, then time order.
  double resample(Rng& rng, std::uint32_t bots, double keep) {
    const auto size = static_cast<std::uint32_t>(run_.size());
    drawn_.resize(bots);
    for (Bot& bot : drawn_) {
      bot.start = static_cast<std::uint32_t>(rng.uniform(size));
      bot.t0 = rng.uniform01();
    }
    // Rank by t0: a counting sort into N buckets over [0, 1), about one bot
    // each, then a sort within them. bucket_start_[j] stays as the rank index:
    // the first rank whose t0 maps to bucket j or later.
    bots_.resize(bots);
    bucket_start_.assign(static_cast<std::size_t>(bots) + 1, 0);
    for (const Bot& bot : drawn_) ++bucket_start_[bucket_of(bot.t0) + 1];
    for (std::uint32_t j = 0; j < bots; ++j) {
      bucket_start_[j + 1] += bucket_start_[j];
    }
    fill_.assign(bucket_start_.begin(), bucket_start_.end() - 1);
    for (const Bot& bot : drawn_) bots_[fill_[bucket_of(bot.t0)]++] = bot;
    sort_nearly_sorted(bots_, [](const Bot& bot) { return bot.t0; });

    // Toggle events per domain, bucketed by counting sort: a run enters at
    // its start and leaves one past its end; a run wrapping past position 0
    // is active from the sweep's outset.
    active_.assign((static_cast<std::size_t>(bots) + 63) / 64, 0);
    summary_.assign((active_.size() + 63) / 64, 0);
    std::uint32_t active = 0;
    offsets_.assign(static_cast<std::size_t>(size) + 1, 0);
    const auto for_each_event = [&](auto&& emit) {
      for (std::uint32_t rank = 0; rank < bots; ++rank) {
        const std::uint32_t start = bots_[rank].start;
        const std::uint32_t end = start + run_[start];
        if (end == start) continue;
        emit(start, rank);
        if (end < size) {
          emit(end, rank);
        } else if (end > size) {
          emit(end - size, rank);
        }
      }
    };
    for_each_event([&](std::uint32_t d, std::uint32_t) { ++offsets_[d + 1]; });
    for (std::uint32_t d = 0; d < size; ++d) offsets_[d + 1] += offsets_[d];
    events_.resize(offsets_[size]);
    fill_ = offsets_;
    for_each_event([&](std::uint32_t d, std::uint32_t rank) {
      events_[fill_[d]++] = rank;
    });
    for (std::uint32_t rank = 0; rank < bots; ++rank) {
      const std::uint32_t start = bots_[rank].start;
      if (start + run_[start] > size) {
        toggle(rank);
        ++active;
      }
    }

    // chain_ carries over from domain d - 1 while `reusable`; margin_ is
    // the smallest distance from a tie among the decisions it holds.
    double forwards = 0.0;
    bool reusable = false;
    for (std::uint32_t d = 0; d < size; ++d) {
      // Leading members whose decisions no toggle at d can change.
      std::size_t kept = reusable ? chain_.size() : 0;
      bool extend = !reusable;
      for (std::uint32_t e = offsets_[d]; e < offsets_[d + 1]; ++e) {
        const std::uint32_t rank = events_[e];
        if (toggle(rank)) {
          ++active;
          // A run enters at its start, arriving at t0: the members
          // arriving more than the guard before it keep their links.
          kept = members_before(d, arrival(rank, d) - kShiftGuard, kept);
          extend = true;
        } else {
          --active;
          // A leaving bot only matters if it forwarded.
          const auto member = static_cast<std::size_t>(
              std::find(chain_.begin(),
                        chain_.begin() + static_cast<std::ptrdiff_t>(kept),
                        rank) -
              chain_.begin());
          if (member < kept) {
            kept = member;
            extend = true;
          }
        }
      }
      if (active == 0) {
        reusable = false;
        continue;
      }
      chain_.resize(kept);
      while (!chain_.empty() && arrival(chain_.back(), d) >= 1.0) {
        chain_.pop_back();  // passed the window's end
      }
      if (extend) {
        if (chain_.empty()) margin_ = std::numeric_limits<double>::infinity();
        const double bound =
            chain_.empty() ? -1.0 : arrival(chain_.back(), d) + ttl_;
        const bool sparse =
            static_cast<double>(active) * ttl_ < kSortedArrivalsPerTtl;
        margin_ = std::min(margin_, sparse ? sorted_links(d, bound)
                                           : queried_links(d, bound));
        reusable = margin_ > kShiftGuard;
      }
      // The thinning draws run in chain order, one per forward.
      if (keep >= 1.0) {
        forwards += static_cast<double>(chain_.size());
      } else {
        for (std::size_t m = 0; m < chain_.size(); ++m) {
          if (rng.bernoulli(keep)) forwards += 1.0;
        }
      }
    }
    return forwards;
  }

 private:
  struct Bot {
    double t0;
    std::uint32_t start;
  };

  struct Arrival {
    double t;
    std::uint32_t rank;
  };

  /// One chain link's answer: the earliest arrival at or after the bound
  /// and the rank it came from, the next arrival after it (or the window's
  /// end), and the latest arrival the bound blocks.
  struct Link {
    double t = 1.0;
    std::uint32_t rank = 0;
    double runner_up = 1.0;
    double blocked = -std::numeric_limits<double>::infinity();
  };

  /// Below this many arrivals per TTL window, sorting a domain's arrivals
  /// whole is cheaper than one rank-index query per chain link.
  static constexpr double kSortedArrivalsPerTtl = 6.0;

  /// A chain is reused only while every decision that built it cleared a
  /// tie by more than this. Arrivals inside the window are below 1, where
  /// t0 + k * step rounds by ~1e-16, so a decision this far from a tie keeps
  /// its side under any shift; the scan's reach slack (~1e-9) sits far
  /// above it.
  static constexpr double kShiftGuard = 1e-12;

  /// Arrival of the bot at `rank` at domain d.
  [[nodiscard]] double arrival(std::size_t rank, std::uint32_t d) const {
    const Bot& bot = bots_[rank];
    const std::uint32_t k = d >= bot.start
                                ? d - bot.start
                                : d + static_cast<std::uint32_t>(run_.size()) -
                                      bot.start;
    return bot.t0 + k * step_;
  }

  /// Number of the first `count` chain members arriving at d before x.
  [[nodiscard]] std::size_t members_before(std::uint32_t d, double x,
                                           std::size_t count) const {
    return static_cast<std::size_t>(
        std::partition_point(
            chain_.begin(), chain_.begin() + static_cast<std::ptrdiff_t>(count),
            [&](std::uint32_t rank) { return arrival(rank, d) < x; }) -
        chain_.begin());
  }

  /// Extends domain d's chain past `bound` from the arrivals that can reach
  /// it, gathered in t0 order (so nearly sorted: each lies within reach of
  /// its t0), sorted and scanned greedily. Returns the new decisions'
  /// margin from a tie.
  double sorted_links(std::uint32_t d, double bound) {
    arrivals_.clear();
    visit_active(first_rank(bound - reach_), [&](std::size_t rank) {
      arrivals_.push_back({arrival(rank, d), static_cast<std::uint32_t>(rank)});
      return true;
    });
    sort_nearly_sorted(arrivals_, [](const Arrival& a) { return a.t; });
    double margin = std::numeric_limits<double>::infinity();
    double blocked_until = bound;
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      const double t = arrivals_[i].t;
      if (t >= 1.0) break;  // spilled past the window
      if (t >= blocked_until) {
        chain_.push_back(arrivals_[i].rank);
        const double runner_up =
            i + 1 < arrivals_.size() ? std::min(arrivals_[i + 1].t, 1.0) : 1.0;
        margin = std::min({margin, t - blocked_until, runner_up - t});
        blocked_until = t + ttl_;
      } else {
        margin = std::min(margin, blocked_until - t);
      }
    }
    return margin;
  }

  /// Extends domain d's chain past `bound`, one earliest-arrival query per
  /// link. A dense domain's TTL is at least kSortedArrivalsPerTtl / active,
  /// far above the spacing of doubles below 1, so t + ttl > t: arrivals
  /// tied with a forward are blocked by it, as in the sorted scan. Returns
  /// the new decisions' margin from a tie.
  double queried_links(std::uint32_t d, double bound) {
    double margin = std::numeric_limits<double>::infinity();
    while (bound < 1.0) {
      const Link link = earliest_arrival(d, bound);
      margin = std::min(margin, bound - link.blocked);
      if (link.t >= 1.0) break;  // none left inside the window
      chain_.push_back(link.rank);
      margin = std::min({margin, link.t - bound, link.runner_up - link.t});
      bound = link.t + ttl_;
    }
    return margin;
  }

  /// Monotone in t, so ranks before bucket_start_[bucket_of(x)] have t0 < x.
  [[nodiscard]] std::size_t bucket_of(double t) const {
    const std::size_t count = bots_.size();
    return std::min(static_cast<std::size_t>(t * static_cast<double>(count)),
                    count - 1);
  }

  /// First rank with t0 >= x.
  [[nodiscard]] std::size_t first_rank(double x) const {
    if (!(x > 0.0)) return 0;
    if (x >= 1.0) return bots_.size();
    std::size_t rank = bucket_start_[bucket_of(x)];
    while (rank < bots_.size() && bots_[rank].t0 < x) ++rank;
    return rank;
  }

  /// Flips rank's bit; true when the bot became active.
  bool toggle(std::uint32_t rank) {
    const std::size_t w = rank >> 6;
    active_[w] ^= std::uint64_t{1} << (rank & 63);
    const std::uint64_t word_bit = std::uint64_t{1} << (w & 63);
    if (active_[w] != 0) {
      summary_[w >> 6] |= word_bit;
    } else {
      summary_[w >> 6] &= ~word_bit;
    }
    return ((active_[w] >> (rank & 63)) & 1) != 0;
  }

  /// Calls visit(rank) for the active ranks >= first, in rank order, until
  /// it returns false. Empty words are skipped through the summary.
  template <typename Visit>
  void visit_active(std::size_t first, Visit&& visit) const {
    std::size_t w = first >> 6;
    if (w >= active_.size()) return;
    std::uint64_t bits = active_[w] & (~std::uint64_t{0} << (first & 63));
    for (;;) {
      for (; bits != 0; bits &= bits - 1) {
        if (!visit((w << 6) |
                   static_cast<std::size_t>(std::countr_zero(bits)))) {
          return;
        }
      }
      if (++w == active_.size()) return;
      bits = active_[w];
      if (bits == 0) {
        std::size_t s = w >> 6;
        std::uint64_t words = summary_[s] & (~std::uint64_t{0} << (w & 63));
        while (words == 0) {
          if (++s == summary_.size()) return;
          words = summary_[s];
        }
        w = (s << 6) | static_cast<std::size_t>(std::countr_zero(words));
        bits = active_[w];
      }
    }
  }

  /// Earliest arrival at domain d at or after `bound`; 1.0 (the window's
  /// end) when every such arrival falls past the window. The ranks the scan
  /// skips lie well clear of the link's decisions: those before it arrive
  /// more than the reach slack below the bound, those past its stop no
  /// earlier than the stopping rank's t0.
  [[nodiscard]] Link earliest_arrival(std::uint32_t d, double bound) const {
    Link link;
    visit_active(first_rank(bound - reach_), [&](std::size_t rank) {
      // Every later arrival is later still.
      if (bots_[rank].t0 > link.t) {
        link.runner_up = std::min(link.runner_up, bots_[rank].t0);
        return false;
      }
      const double t = arrival(rank, d);
      if (t < bound) {
        link.blocked = std::max(link.blocked, t);
      } else if (t < link.t) {
        link.runner_up = link.t;
        link.t = t;
        link.rank = static_cast<std::uint32_t>(rank);
      } else if (t < link.runner_up) {
        link.runner_up = t;
      }
      return true;
    });
    return link;
  }

  const std::vector<std::uint32_t>& run_;
  double step_;
  double ttl_;
  double reach_;
  std::vector<Bot> drawn_;  // bot order
  std::vector<Bot> bots_;   // t0 order: index = rank
  std::vector<std::uint32_t> bucket_start_;
  std::vector<std::uint64_t> active_;
  std::vector<std::uint64_t> summary_;  // bit w: active_[w] != 0
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> fill_;
  std::vector<std::uint32_t> events_;
  std::vector<Arrival> arrivals_;
  std::vector<std::uint32_t> chain_;  // ranks of the current chain's members
  double margin_ = 0.0;
};

/// The sufficient statistic of the coverage/forward methods, producible from
/// either observation form. From an exact observation every field is exact;
/// from a compact cell the distinct count comes from the KMV sketch —
/// integer-exact until saturation, flagged approximate with its relative
/// standard error afterwards.
struct BernoulliStats {
  double distinct = 0.0;
  double nxd_lookups = 0.0;
  std::uint64_t total_lookups = 0;  // bootstrap-seed ingredient
  bool approximate = false;
  double distinct_rse = 0.0;
};

BernoulliStats stats_of(const EpochObservation& obs) {
  BernoulliStats stats;
  stats.distinct = observed_distinct_nxds(obs);
  stats.nxd_lookups = observed_nxd_lookups(obs);
  stats.total_lookups = obs.lookups.size();
  return stats;
}

BernoulliStats stats_of(const CompactObservation& obs) {
  const KmvSketch* kmv = obs.cell->distinct_nxd();
  if (kmv == nullptr) {
    throw ConfigError(
        "BernoulliEstimator: compact cell lacks the distinct-NXD sketch");
  }
  BernoulliStats stats;
  stats.distinct = kmv->estimate();
  stats.nxd_lookups = static_cast<double>(obs.cell->nxd_lookups());
  stats.total_lookups = obs.cell->matched();
  stats.approximate = kmv->saturated();
  stats.distinct_rse = kmv->relative_error();
  return stats;
}

/// Everything else an evaluation needs, identical across observation forms.
struct BernoulliProblem {
  const dga::EpochPool* pool = nullptr;
  const dga::DgaConfig* config = nullptr;
  dns::TtlPolicy ttl;
  Duration window_length;
  std::optional<double> assumed_miss_rate;
  EstimationContext* context = nullptr;
};

BernoulliProblem problem_of(const EpochObservation& obs) {
  return {obs.pool, obs.config, obs.ttl, obs.window_length,
          obs.assumed_miss_rate, obs.context};
}

BernoulliProblem problem_of(const CompactObservation& obs) {
  return {obs.pool, obs.config, obs.ttl, obs.window_length,
          obs.assumed_miss_rate, obs.context};
}

/// The shared point-estimate core of the coverage/adaptive methods. Exact
/// and compact paths both land here; identical stats give identical bits.
double estimate_core(const BernoulliProblem& p, const BernoulliStats& stats,
                     BernoulliMethod method) {
  std::unique_ptr<CoverageTables> local_tables;
  const CoverageTables& tables =
      coverage_tables_for(p.context, *p.pool, *p.config, local_tables);
  const double keep = p.assumed_miss_rate ? (1.0 - *p.assumed_miss_rate) : 1.0;

  const double coverage_estimate =
      invert_coverage_tables(tables, stats.distinct, keep, p.context);
  if (method == BernoulliMethod::kCoverageInversion) {
    return coverage_estimate;
  }

  // Adaptive: the coverage count is the cleaner statistic (no temporal
  // assumptions at all) while it still has slope; past saturation it stops
  // resolving N and the forwarded-count renewal statistic takes over.
  const double ceiling = static_cast<double>(p.pool->nxd_count()) * keep;
  if (stats.distinct < kSaturationFraction * ceiling) {
    return coverage_estimate;
  }
  const double ttl_fraction =
      ttl_fraction_for(p.ttl.negative, p.window_length, "invert_forward_count");
  std::unique_ptr<RenewalTable> local_renewal;
  const RenewalTable& renewal =
      renewal_table_for(p.context, ttl_fraction, local_renewal);
  return invert_forwards_tables(tables, renewal, stats.nxd_lookups, keep,
                                p.context);
}

/// The shared interval core: point estimate plus the parametric bootstrap of
/// the active statistic, pushed back through the inversion. For approximate
/// stats the coverage band additionally carries the KMV standard error
/// (variances add: the bootstrap spread and the sketch error are
/// independent); the guard keeps the exact path's arithmetic untouched.
IntervalEstimate interval_core(const BernoulliProblem& p,
                               const BernoulliStats& stats,
                               BernoulliMethod method, double level) {
  IntervalEstimate result;
  result.value = estimate_core(p, stats, method);
  result.level = level;
  result.approximate = stats.approximate;
  result.sketch_rse = stats.distinct_rse;
  if (result.value <= 0.0) return result;

  const dga::EpochPool& pool = *p.pool;
  const dga::DgaConfig& config = *p.config;
  const double keep = p.assumed_miss_rate ? (1.0 - *p.assumed_miss_rate) : 1.0;
  const double distinct = stats.distinct;
  const bool use_forward_statistic =
      method == BernoulliMethod::kAdaptive &&
      distinct >=
          kSaturationFraction * static_cast<double>(pool.nxd_count()) * keep;

  std::unique_ptr<CoverageTables> local_tables;
  const CoverageTables& tables =
      coverage_tables_for(p.context, pool, config, local_tables);

  // Parametric bootstrap under the point estimate. Deterministic: the seed
  // depends only on the observation, not on global state.
  Rng rng{mix64(0xB0075742ULL ^ static_cast<std::uint64_t>(pool.epoch) ^
                (static_cast<std::uint64_t>(stats.total_lookups) << 20))};
  constexpr int kResamples = 32;
  const auto n_hat =
      static_cast<std::uint32_t>(std::min(result.value + 0.5, 5e6));
  RunningStats statistic;

  const std::vector<std::uint32_t> run = run_lengths(pool, config.barrel_size);
  if (!use_forward_statistic) {
    // Re-simulate the distinct-coverage statistic: N bots, random starts,
    // runs to the boundary or theta_q, thinned by the detection keep rate.
    // Each run is one contiguous ring range, marked in a difference array
    // (a wrapping run as its two pieces) and recovered by a prefix sum.
    const std::uint32_t size = pool.size();
    std::vector<std::int32_t> depth(static_cast<std::size_t>(size) + 1);
    for (int r = 0; r < kResamples; ++r) {
      std::fill(depth.begin(), depth.end(), 0);
      for (std::uint32_t b = 0; b < n_hat; ++b) {
        const auto start = static_cast<std::uint32_t>(rng.uniform(size));
        const std::uint32_t end = start + run[start];
        ++depth[start];
        if (end <= size) {
          --depth[end];
        } else {
          ++depth[0];
          --depth[end - size];
        }
      }
      double count = 0.0;
      std::int32_t cover = 0;
      for (std::uint32_t d = 0; d < size; ++d) {
        cover += depth[d];
        if (cover > 0 && (keep >= 1.0 || rng.bernoulli(keep))) count += 1.0;
      }
      statistic.add(count);
    }
  } else {
    // Re-simulate the forwarded-count statistic at the *bot* level: one
    // bot's run touches up to theta_q consecutive domains at nearly the
    // same time, so per-domain arrival processes are strongly correlated —
    // a per-domain Poisson bootstrap would understate the variance badly.
    const double ttl_fraction =
        static_cast<double>(p.ttl.negative.millis()) /
        static_cast<double>(p.window_length.millis());
    const Duration step = config.query_interval.millis() > 0
                              ? config.query_interval
                              : (config.jitter_min + config.jitter_max) / 2;
    const double step_fraction =
        static_cast<double>(step.millis()) /
        static_cast<double>(p.window_length.millis());
    ForwardSweep sweep(run, config.barrel_size, step_fraction, ttl_fraction);
    for (int r = 0; r < kResamples; ++r) {
      statistic.add(sweep.resample(rng, n_hat, keep));
    }
  }

  const double z = normal_quantile(0.5 + level / 2.0);
  double spread = statistic.stddev();
  if (stats.approximate && !use_forward_statistic) {
    // The coverage statistic itself is sketch-estimated: its standard error
    // distinct * rse adds in quadrature to the bootstrap spread. (The
    // forwarded count stays exact in compact cells, so the forward band
    // needs no widening.) Guarded so exact stats keep their exact bits.
    const double sketch_sd = distinct * stats.distinct_rse;
    spread = std::sqrt(spread * spread + sketch_sd * sketch_sd);
  }
  const double observed_statistic =
      use_forward_statistic ? stats.nxd_lookups : distinct;
  const double lo_stat = std::max(observed_statistic - z * spread, 0.0);
  const double hi_stat = observed_statistic + z * spread;
  std::unique_ptr<RenewalTable> local_renewal;
  const RenewalTable* renewal = nullptr;
  if (use_forward_statistic) {
    renewal = &renewal_table_for(
        p.context,
        ttl_fraction_for(p.ttl.negative, p.window_length,
                         "invert_forward_count"),
        local_renewal);
  }
  const auto invert = [&](double s) {
    return use_forward_statistic
               ? invert_forwards_tables(tables, *renewal, s, keep, p.context)
               : invert_coverage_tables(tables, s, keep, p.context);
  };
  result.interval = {invert(lo_stat), invert(hi_stat)};
  return result;
}

}  // namespace

BernoulliEstimator::BernoulliEstimator(BernoulliMethod method)
    : method_(method) {}

std::string_view BernoulliEstimator::name() const {
  switch (method_) {
    case BernoulliMethod::kAdaptive:
      return "bernoulli";
    case BernoulliMethod::kCoverageInversion:
      return "bernoulli-coverage";
    case BernoulliMethod::kSegmentExpectation:
      return "bernoulli-segment";
  }
  return "bernoulli";
}

double BernoulliEstimator::expected_coverage(const dga::EpochPool& pool,
                                             const dga::DgaConfig& config,
                                             double n,
                                             std::optional<double> miss_rate) {
  if (n < 0.0) throw ConfigError("expected_coverage: n must be >= 0");
  return expected_coverage_from_tables(build_coverage_tables(pool, config), n,
                                       miss_rate ? (1.0 - *miss_rate) : 1.0);
}

double BernoulliEstimator::invert_coverage(const dga::EpochPool& pool,
                                           const dga::DgaConfig& config,
                                           double observed,
                                           std::optional<double> miss_rate) {
  // Build the tables once; the bisection evaluates the expectation a few
  // hundred times.
  const CoverageTables tables = build_coverage_tables(pool, config);
  return invert_coverage_tables(tables, observed,
                                miss_rate ? (1.0 - *miss_rate) : 1.0, nullptr);
}

double BernoulliEstimator::expected_forward_count(
    const dga::EpochPool& pool, const dga::DgaConfig& config, double n,
    Duration negative_ttl, Duration epoch_length,
    std::optional<double> miss_rate) {
  if (n < 0.0) throw ConfigError("expected_forward_count: n must be >= 0");
  if (negative_ttl.millis() <= 0 || epoch_length.millis() <= 0) {
    throw ConfigError("expected_forward_count: TTL and epoch must be positive");
  }
  const double ttl_fraction = static_cast<double>(negative_ttl.millis()) /
                              static_cast<double>(epoch_length.millis());
  return expected_forwards_from_tables(
      build_coverage_tables(pool, config), build_renewal_table(ttl_fraction), n,
      miss_rate ? (1.0 - *miss_rate) : 1.0);
}

double BernoulliEstimator::invert_forward_count(
    const dga::EpochPool& pool, const dga::DgaConfig& config, double observed,
    Duration negative_ttl, Duration epoch_length,
    std::optional<double> miss_rate) {
  if (negative_ttl.millis() <= 0 || epoch_length.millis() <= 0) {
    throw ConfigError("invert_forward_count: TTL and epoch must be positive");
  }
  const CoverageTables tables = build_coverage_tables(pool, config);
  const double ttl_fraction = static_cast<double>(negative_ttl.millis()) /
                              static_cast<double>(epoch_length.millis());
  return invert_forwards_tables(tables, build_renewal_table(ttl_fraction),
                                observed, miss_rate ? (1.0 - *miss_rate) : 1.0,
                                nullptr);
}

double BernoulliEstimator::estimate(const EpochObservation& obs) const {
  obs.validate();
  if (!applicable(*obs.config)) {
    throw ConfigError("BernoulliEstimator: requires the randomcut barrel (A_R)");
  }
  if (method_ == BernoulliMethod::kSegmentExpectation) {
    return estimate_by_segments(obs);
  }
  return estimate_core(problem_of(obs), stats_of(obs), method_);
}

IntervalEstimate BernoulliEstimator::estimate_with_interval(
    const EpochObservation& obs, double level) const {
  if (!(level > 0.0 && level < 1.0)) {
    throw ConfigError("estimate_with_interval: level must be in (0,1)");
  }

  if (method_ == BernoulliMethod::kSegmentExpectation) {
    return IntervalEstimate{estimate(obs), std::nullopt, level};
  }
  obs.validate();
  if (!applicable(*obs.config)) {
    throw ConfigError("BernoulliEstimator: requires the randomcut barrel (A_R)");
  }

  const BernoulliStats stats = stats_of(obs);
  const BernoulliProblem problem = problem_of(obs);
  const auto compute = [&] {
    return interval_core(problem, stats, method_, level);
  };

  // Within one (epoch, configuration) scope the whole result — point
  // estimate, bootstrap (its seed uses only pool.epoch and the lookup
  // count), and pushed-back interval — is a pure function of the sufficient
  // statistic below, so a shared context can memoize the entire call. The
  // segment method reads actual positions and is excluded.
  if (obs.context != nullptr) {
    return obs.context->memoized_interval(
        std::string("bernoulli.interval.") + std::string(name()),
        {stats.distinct, stats.nxd_lookups,
         static_cast<double>(stats.total_lookups), level},
        compute);
  }
  return compute();
}

CompactSupport BernoulliEstimator::compact_support() const {
  if (method_ == BernoulliMethod::kSegmentExpectation) return {};
  CompactSupport support;
  support.supported = true;
  support.needs_distinct = true;
  return support;
}

IntervalEstimate BernoulliEstimator::estimate_with_interval(
    const CompactObservation& obs, double level) const {
  if (!(level > 0.0 && level < 1.0)) {
    throw ConfigError("estimate_with_interval: level must be in (0,1)");
  }
  if (method_ == BernoulliMethod::kSegmentExpectation) {
    return Estimator::estimate_with_interval(obs, level);  // throws
  }
  obs.validate();
  if (!applicable(*obs.config)) {
    throw ConfigError("BernoulliEstimator: requires the randomcut barrel (A_R)");
  }

  const BernoulliStats stats = stats_of(obs);
  const BernoulliProblem problem = problem_of(obs);
  const auto compute = [&] {
    return interval_core(problem, stats, method_, level);
  };
  if (obs.context != nullptr) {
    // Exact-regime compact stats coincide with the exact path's sufficient
    // statistic, so sharing its memo key returns the exact path's bits.
    // Saturated stats use their own key space: the saturated estimate is a
    // continuous value that must never collide with an exact entry.
    const std::string key =
        (stats.approximate ? std::string("bernoulli.compact_interval.")
                           : std::string("bernoulli.interval.")) +
        std::string(name());
    return obs.context->memoized_interval(
        key,
        {stats.distinct, stats.nxd_lookups,
         static_cast<double>(stats.total_lookups), level},
        compute);
  }
  return compute();
}

double BernoulliEstimator::estimate_by_segments(
    const EpochObservation& obs) const {
  const dga::EpochPool& pool = *obs.pool;
  const dga::DgaConfig& config = *obs.config;

  std::vector<std::uint32_t> positions;
  positions.reserve(obs.lookups.size());
  for (const detect::MatchedLookup& lookup : obs.lookups) {
    if (!lookup.is_valid_domain) positions.push_back(lookup.pool_position);
  }
  const std::vector<Segment> segments = extract_segments(pool, positions);
  if (segments.empty()) return 0.0;

  const double pool_size = static_cast<double>(pool.size());
  const double theta_q = static_cast<double>(config.barrel_size);

  // E[N_L | mu]: expected bots required to cover one segment, with bot
  // starts Poissonized at intensity mu per position. A b-segment is the run
  // of its leftmost bot (1 start observed at the left end, plus interior
  // starts at rate mu); an m-segment of length l > theta_q pins both the
  // leftmost and rightmost start of a window of l - theta_q + 1 positions.
  const auto segment_expectation = [&](const Segment& s, double mu) {
    const double l = static_cast<double>(s.length);
    if (s.kind == SegmentKind::kBoundary) {
      return 1.0 + mu * std::max(l - 1.0, 0.0);
    }
    if (l <= theta_q) return 1.0;  // a single (possibly truncated) run
    const double window = l - theta_q + 1.0;
    return 2.0 + mu * std::max(window - 2.0, 0.0);
  };

  // Fixed point on the population (contraction: the slope in mu is
  // sum(l)/P < 1).
  double n_hat = static_cast<double>(segments.size());
  for (int iter = 0; iter < 100; ++iter) {
    const double mu = n_hat / pool_size;
    double next = 0.0;
    for (const Segment& s : segments) next += segment_expectation(s, mu);
    if (std::abs(next - n_hat) < 1e-9) {
      n_hat = next;
      break;
    }
    n_hat = next;
  }
  return n_hat;
}

}  // namespace botmeter::estimators
