// The DGA-domain matcher (architecture step 3 of Fig. 2).
//
// The matcher consumes the vantage-point stream and keeps the lookups whose
// domain falls inside a registered detection window, grouping them by
// (forwarding server, pool epoch) — exactly the matching results handed to
// the analytical models in step 4. Domains may be registered from plain
// lists (detection windows over known pools) or recognised structurally via
// `AlgorithmicPattern` (§ "algorithmic patterns (or plain lists)").
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "detect/detection_window.hpp"
#include "dga/pool.hpp"
#include "dns/ids.hpp"
#include "dns/vantage.hpp"

namespace botmeter {
class WorkerPool;
}

namespace botmeter::detect {

/// One matched, cache-filtered lookup. `pool_position` indexes the epoch's
/// pool; `is_valid_domain` says whether that position is registered C2.
struct MatchedLookup {
  TimePoint t;
  std::uint32_t pool_position = 0;
  bool is_valid_domain = false;

  friend bool operator==(const MatchedLookup&, const MatchedLookup&) = default;
};

/// Canonical order of a matched (server, epoch) stream. Ties are benign:
/// within one epoch a pool position determines the domain, so two lookups
/// comparing equal are byte-identical elements and even an unstable sort
/// yields one canonical sequence.
inline bool matched_lookup_less(const MatchedLookup& a,
                                const MatchedLookup& b) {
  if (a.t != b.t) return a.t < b.t;
  return a.pool_position < b.pool_position;
}

/// Grouping key for matched streams.
struct StreamKey {
  dns::ServerId server;
  std::int64_t epoch = 0;

  friend auto operator<=>(const StreamKey&, const StreamKey&) = default;
};

/// Matched lookups per (server, epoch), each stream sorted by timestamp.
using MatchedStreams = std::map<StreamKey, std::vector<MatchedLookup>>;

/// Tallies of one match() pass (observability): how much of the vantage
/// stream the detection window recognised, split by registered C2 vs
/// detected-NXD hits.
struct MatchStats {
  std::uint64_t stream_size = 0;  // lookups examined
  std::uint64_t matched = 0;      // fell inside a detection window
  std::uint64_t unmatched = 0;    // benign traffic / missed NXDs
  std::uint64_t valid_domain = 0; // matched, registered C2 position
  std::uint64_t nxd = 0;          // matched, detected NXD position

  MatchStats& operator+=(const MatchStats& other) {
    stream_size += other.stream_size;
    matched += other.matched;
    unmatched += other.unmatched;
    valid_domain += other.valid_domain;
    nxd += other.nxd;
    return *this;
  }

  friend bool operator==(const MatchStats&, const MatchStats&) = default;
};

class DomainMatcher {
 public:
  /// `epoch_length` maps timestamps to nominal epochs when a domain string
  /// belongs to several epochs' pools (sliding-window families).
  explicit DomainMatcher(Duration epoch_length);

  /// Register one epoch's pool and its detection window. Only detected
  /// positions become matchable.
  void add_epoch(const dga::EpochPool& pool, const DetectionWindow& window);

  /// Match a vantage-point stream. Unmatched lookups (benign traffic,
  /// missed NXDs) are dropped; pass `stats` to learn how many. With
  /// `workers`, the stream is sharded into contiguous ranges and the
  /// per-shard results merged serially in shard order. Matching is stateless
  /// per lookup and per-key concatenation in shard order reproduces the
  /// exact stream order, so the output (and `stats`) is bit-identical to the
  /// serial loop for any worker count; a null or single-threaded pool is
  /// that serial loop.
  [[nodiscard]] MatchedStreams match(std::span<const dns::ForwardedLookup> stream,
                                     MatchStats* stats = nullptr,
                                     WorkerPool* workers = nullptr) const;

  /// One matched lookup with its (server, epoch) attribution.
  struct MatchOutcome {
    StreamKey key;
    MatchedLookup lookup;
  };

  /// Match a single lookup — the incremental entry point the streaming
  /// engine uses. Attribution is identical to match(): the batch path is a
  /// loop over this function, so a tuple matches the same way whether it
  /// arrives in a replayed vector or one at a time off a live feed.
  [[nodiscard]] std::optional<MatchOutcome> match_one(
      const dns::ForwardedLookup& lookup) const;

  /// entry() of a domain no detection window holds.
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;

  /// Pre-resolved pool membership of one domain string: its dense entry id
  /// in the index. Falsy means the domain is not in any detection window
  /// (the overwhelming majority of border traffic). Ids are append-only —
  /// add_epoch() never renumbers one — so a producer can resolve once and
  /// ship the bare id to whichever consumer shares this matcher.
  class Resolved {
   public:
    Resolved() = default;
    /// Rebuild a handle from entry(). Precondition: `entry` is kNoEntry or
    /// below entry_count() of the matcher it came from.
    explicit Resolved(std::uint32_t entry) : entry_(entry) {}
    [[nodiscard]] explicit operator bool() const { return entry_ != kNoEntry; }
    [[nodiscard]] std::uint32_t entry() const { return entry_; }

   private:
    std::uint32_t entry_ = kNoEntry;
  };

  /// One string hash per *distinct* domain: resolve the membership once
  /// (per interned id per trace file / vantage table), then replay the
  /// handle per tuple via match_resolved — no hashing, no allocation.
  [[nodiscard]] Resolved resolve(std::string_view domain) const;

  /// Batched resolve: `out[i] == resolve(domains[i])` for every i
  /// (`out.size() == domains.size()`). Probes the index with a
  /// software-prefetch pipeline over slot, entry and key bytes, so the
  /// dependent cache misses of tens of thousands of lookups against a large
  /// table overlap instead of serialising — the block path resolves a whole
  /// freshly interned table tail per call.
  void resolve_many(std::span<const std::string_view> domains,
                    std::span<Resolved> out) const;

  /// Extend `remap` (producer table id -> Resolved) over the table's new
  /// tail with one resolve_many; a table no longer than `remap` is a no-op.
  /// One interning lineage per remap: the table may only grow between calls.
  void resolve_tail(std::span<const std::string_view> table,
                    std::vector<Resolved>& remap) const;

  /// Attribute one tuple of a pre-resolved domain. Precondition: `resolved`
  /// is truthy and came from this matcher. Attribution is byte-identical to
  /// match_one on the equivalent (t, server, domain) tuple — match_one is
  /// resolve + match_resolved.
  [[nodiscard]] MatchOutcome match_resolved(Resolved resolved, TimePoint t,
                                            dns::ServerId forwarder) const;

  /// The nominal pool epoch containing `t` — the reference point of
  /// match_resolved's closest-epoch attribution. Exposed so batched callers
  /// can hoist the per-tuple division out of their hot loop: timestamps
  /// arrive almost sorted, so one epoch's range answers long runs of tuples.
  [[nodiscard]] std::int64_t nominal_epoch(TimePoint t) const;

  /// match_resolved with the nominal epoch precomputed. Precondition on top
  /// of match_resolved's: `nominal == nominal_epoch(t)`. The outcome's
  /// (epoch, pool_position, is_valid_domain) depend only on the domain and
  /// `nominal` — t and forwarder pass through — so callers may additionally
  /// memoise the attribution per (domain, nominal) pair.
  [[nodiscard]] MatchOutcome match_resolved(Resolved resolved, TimePoint t,
                                            dns::ServerId forwarder,
                                            std::int64_t nominal) const;

  /// Bucket one block of pre-resolved tuples into `out` and add its tallies
  /// to `stats`, attributing each exactly as match() would the equivalent
  /// lookup — the batch pipeline's block path, fed as a trace decodes.
  /// `block.domain[i]` is tuple i's Resolved::entry() (kNoEntry for
  /// unmatched traffic); an id at or past entry_count() throws DataError
  /// before any tuple is bucketed. Streams keep arrival order, so sort them
  /// (BotMeter::estimate_epoch_row does) before reading them as match()'s.
  void match_block(const dns::LookupColumns& block, MatchedStreams& out,
                   MatchStats& stats) const;

  [[nodiscard]] Duration epoch_length() const { return epoch_length_; }

  /// Distinct registered domains: the bound on every Resolved::entry().
  [[nodiscard]] std::uint32_t entry_count() const {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// Registered (domain, epoch) occurrences, over all epochs.
  [[nodiscard]] std::uint64_t matchable_domain_count() const {
    return occurrences_.size();
  }

 private:
  // The index is one flat table: every distinct domain's bytes in one arena
  // (`keys_`), one `Entry` per distinct domain, one `Occurrence` per
  // registration, chained per domain in registration order (`next` 0 ends a
  // chain: links only point forward, so occurrence 0 succeeds nobody), and
  // a power-of-two linear-probe `Slot` table at load ≤ 1/2 holding each
  // key's low 32 hash bits (which also pick its home slot) and its entry
  // id + 1 (0 marks an empty slot).
  struct Occurrence {
    std::int64_t epoch;
    std::uint32_t pool_position;
    std::uint32_t next;
    bool is_valid;
  };
  struct Entry {
    std::uint32_t key_offset;
    std::uint32_t key_length;
    std::uint32_t first;  // occurrence chain ends
    std::uint32_t last;
  };
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t entry = 0;
  };

  static std::uint32_t key_hash(std::string_view domain) {
    return static_cast<std::uint32_t>(std::hash<std::string_view>{}(domain));
  }
  /// The slot holding `domain`, or the empty slot ending its probe run.
  [[nodiscard]] std::size_t probe(std::uint32_t hash, std::string_view domain) const;
  [[nodiscard]] Resolved find(std::uint32_t hash, std::string_view domain) const;
  void match_range(std::span<const dns::ForwardedLookup> stream,
                   MatchedStreams& out, MatchStats& stats) const;

  Duration epoch_length_;
  std::string keys_;
  std::vector<Entry> entries_;
  std::vector<Occurrence> occurrences_;
  std::vector<Slot> slots_;
};

/// Structural recognition of a DGA family's output: length bounds, allowed
/// label characters, and candidate TLDs. This is the "algorithmic pattern"
/// entry path of the BotMeter configuration interface; it cannot tell two
/// families with the same shape apart, so the pipeline prefers plain lists
/// when a generator is available.
class AlgorithmicPattern {
 public:
  AlgorithmicPattern(std::size_t min_label_len, std::size_t max_label_len,
                     std::vector<std::string> tlds);

  [[nodiscard]] bool matches(std::string_view domain) const;

 private:
  std::size_t min_label_len_;
  std::size_t max_label_len_;
  std::vector<std::string> tlds_;
};

}  // namespace botmeter::detect
