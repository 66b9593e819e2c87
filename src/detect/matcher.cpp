#include "detect/matcher.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/prefetch.hpp"

namespace botmeter::detect {

DomainMatcher::DomainMatcher(Duration epoch_length)
    : epoch_length_(epoch_length), slots_(1024) {
  if (epoch_length.millis() <= 0) {
    throw ConfigError("DomainMatcher: epoch length must be positive");
  }
}

void DomainMatcher::add_epoch(const dga::EpochPool& pool,
                              const DetectionWindow& window) {
  if (window.epoch != pool.epoch) {
    throw ConfigError("DomainMatcher: detection window epoch mismatch");
  }
  if (window.detected.size() != pool.domains.size()) {
    throw ConfigError("DomainMatcher: detection window size mismatch");
  }
  std::size_t key_bytes = keys_.size();
  for (const std::string& domain : pool.domains) key_bytes += domain.size();
  if (key_bytes > UINT32_MAX || occurrences_.size() + pool.size() >= UINT32_MAX) {
    throw ConfigError("DomainMatcher: index outgrows its 32-bit offsets");
  }
  // Room for every position being new, so an epoch never rehashes midway;
  // growth re-places slots by their stored hash bits, never rereading keys.
  const std::size_t room = std::bit_ceil(2 * (entries_.size() + pool.size()));
  if (room > slots_.size()) {
    std::vector<Slot> grown(room);
    const std::size_t mask = grown.size() - 1;
    for (const Slot& slot : slots_) {
      if (slot.entry == 0) continue;
      std::size_t i = slot.hash & mask;
      while (grown[i].entry != 0) i = (i + 1) & mask;
      grown[i] = slot;
    }
    slots_ = std::move(grown);
  }
  for (std::uint32_t pos = 0; pos < pool.size(); ++pos) {
    if (!window.detected[pos]) continue;
    const std::string& domain = pool.domains[pos];
    const auto id = static_cast<std::uint32_t>(occurrences_.size());
    const std::uint32_t hash = key_hash(domain);
    Slot& slot = slots_[probe(hash, domain)];
    if (slot.entry != 0) {
      Entry& entry = entries_[slot.entry - 1];
      occurrences_[entry.last].next = id;
      entry.last = id;
    } else {
      slot = Slot{hash, static_cast<std::uint32_t>(entries_.size() + 1)};
      entries_.push_back(Entry{static_cast<std::uint32_t>(keys_.size()),
                               static_cast<std::uint32_t>(domain.size()), id, id});
      keys_ += domain;
    }
    occurrences_.push_back(
        Occurrence{pool.epoch, pos, 0, pool.is_valid_position(pos)});
  }
}

std::size_t DomainMatcher::probe(std::uint32_t hash,
                                 std::string_view domain) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  for (; slots_[i].entry != 0; i = (i + 1) & mask) {
    const Entry& e = entries_[slots_[i].entry - 1];
    if (slots_[i].hash == hash &&
        std::string_view(keys_.data() + e.key_offset, e.key_length) == domain) {
      break;
    }
  }
  return i;
}

DomainMatcher::Resolved DomainMatcher::find(std::uint32_t hash,
                                            std::string_view domain) const {
  const Slot& slot = slots_[probe(hash, domain)];
  return slot.entry != 0 ? Resolved(slot.entry - 1) : Resolved();
}

DomainMatcher::Resolved DomainMatcher::resolve(std::string_view domain) const {
  return find(key_hash(domain), domain);
}

void DomainMatcher::resolve_many(std::span<const std::string_view> domains,
                                 std::span<Resolved> out) const {
  if (domains.size() != out.size()) {
    throw ConfigError("DomainMatcher::resolve_many: output span size mismatch");
  }
  // Staged pipeline over fixed chunks: hash everything first, then walk the
  // miss chain in prefetch waves — first the home slots, then the entries
  // they name, then the key bytes — so by the time find compares keys, each
  // lookup's three dependent lines are already in flight.
  const std::size_t mask = slots_.size() - 1;
  constexpr std::size_t kChunk = 64;
  std::uint32_t hash[kChunk];
  const Slot* slot[kChunk];
  for (std::size_t base = 0; base < domains.size(); base += kChunk) {
    const std::size_t m = std::min(kChunk, domains.size() - base);
    for (std::size_t j = 0; j < m; ++j) {
      hash[j] = key_hash(domains[base + j]);
      slot[j] = &slots_[hash[j] & mask];
      prefetch_ro(slot[j]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (slot[j]->entry != 0) prefetch_ro(&entries_[slot[j]->entry - 1]);
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (slot[j]->entry != 0 && slot[j]->hash == hash[j]) {
        prefetch_ro(keys_.data() + entries_[slot[j]->entry - 1].key_offset);
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      out[base + j] = find(hash[j], domains[base + j]);
    }
  }
}

void DomainMatcher::resolve_tail(std::span<const std::string_view> table,
                                 std::vector<Resolved>& remap) const {
  const std::size_t old = remap.size();
  if (table.size() <= old) return;
  remap.resize(table.size());
  resolve_many(table.subspan(old), std::span<Resolved>(remap).subspan(old));
}

std::int64_t DomainMatcher::nominal_epoch(TimePoint t) const {
  const std::int64_t ms = t.millis(), length = epoch_length_.millis();
  return ms >= 0 ? ms / length : (ms - length + 1) / length;
}

DomainMatcher::MatchOutcome DomainMatcher::match_resolved(
    Resolved resolved, TimePoint t, dns::ServerId forwarder) const {
  return match_resolved(resolved, t, forwarder, nominal_epoch(t));
}

DomainMatcher::MatchOutcome DomainMatcher::match_resolved(
    Resolved resolved, TimePoint t, dns::ServerId forwarder,
    std::int64_t nominal) const {
  const Entry& entry = entries_[resolved.entry()];

  // Attribute the lookup to the pool epoch containing its timestamp when
  // possible; otherwise to the closest registered epoch (a lookup train
  // that spilled past an epoch boundary, or a sliding-window domain
  // observed outside its generation day). Only a strictly closer epoch
  // replaces the best, so the first registered wins ties.
  const Occurrence* best = &occurrences_[entry.first];
  std::int64_t best_distance = std::abs(best->epoch - nominal);
  for (std::uint32_t i = best->next; i != 0 && best_distance != 0;
       i = occurrences_[i].next) {
    const Occurrence& occ = occurrences_[i];
    const std::int64_t distance = std::abs(occ.epoch - nominal);
    if (distance < best_distance) {
      best = &occ;
      best_distance = distance;
    }
  }
  return MatchOutcome{StreamKey{forwarder, best->epoch},
                      MatchedLookup{t, best->pool_position, best->is_valid}};
}

std::optional<DomainMatcher::MatchOutcome> DomainMatcher::match_one(
    const dns::ForwardedLookup& lookup) const {
  const Resolved resolved = resolve(lookup.domain);
  if (!resolved) return std::nullopt;
  return match_resolved(resolved, lookup.timestamp, lookup.forwarder);
}

void DomainMatcher::match_range(std::span<const dns::ForwardedLookup> stream,
                                MatchedStreams& out, MatchStats& stats) const {
  for (const dns::ForwardedLookup& lookup : stream) {
    ++stats.stream_size;
    const std::optional<MatchOutcome> outcome = match_one(lookup);
    if (!outcome) {
      ++stats.unmatched;
      continue;
    }
    ++stats.matched;
    if (outcome->lookup.is_valid_domain) {
      ++stats.valid_domain;
    } else {
      ++stats.nxd;
    }
    out[outcome->key].push_back(outcome->lookup);
  }
}

void DomainMatcher::match_block(const dns::LookupColumns& block,
                                MatchedStreams& out, MatchStats& stats) const {
  if (block.server.size() != block.size() ||
      block.domain.size() != block.size()) {
    throw DataError("DomainMatcher::match_block: ragged columns");
  }
  for (const std::uint32_t e : block.domain) {
    if (e >= entry_count() && e != kNoEntry) {
      throw DataError("DomainMatcher::match_block: entry id " +
                      std::to_string(e) + " outside the index");
    }
  }
  // A run of matched tuples in one (server, epoch) stream, as a lookup
  // train or a per-server feed delivers them, skips the map walk.
  StreamKey last_key{dns::ServerId{0}, 0};
  std::vector<MatchedLookup>* last = nullptr;
  for (std::size_t i = 0; i < block.size(); ++i) {
    ++stats.stream_size;
    const Resolved resolved(block.domain[i]);
    if (!resolved) {
      ++stats.unmatched;
      continue;
    }
    const MatchOutcome outcome = match_resolved(
        resolved, TimePoint{block.t_ms[i]}, dns::ServerId{block.server[i]});
    ++stats.matched;
    if (outcome.lookup.is_valid_domain) {
      ++stats.valid_domain;
    } else {
      ++stats.nxd;
    }
    if (last == nullptr || outcome.key != last_key) {
      last_key = outcome.key;
      last = &out[last_key];
    }
    last->push_back(outcome.lookup);
  }
}

MatchedStreams DomainMatcher::match(
    std::span<const dns::ForwardedLookup> stream, MatchStats* stats,
    WorkerPool* workers) const {
  MatchedStreams out;
  MatchStats tally;
  if (workers != nullptr && workers->thread_count() > 1 && stream.size() > 1) {
    // Contiguous shards; match_one only reads the immutable index, so shards
    // are independent. The shard partition depends on the thread count but
    // the merged output does not: appending each key's shard-local lookups
    // in shard order reproduces the exact stream order for that key.
    const std::size_t shard_count =
        std::min(stream.size(), workers->thread_count() * 4);
    std::vector<MatchedStreams> shard_out(shard_count);
    std::vector<MatchStats> shard_stats(shard_count);
    workers->parallel_for(shard_count, [&](std::size_t s) {
      const std::size_t begin = stream.size() * s / shard_count;
      const std::size_t end = stream.size() * (s + 1) / shard_count;
      match_range(stream.subspan(begin, end - begin), shard_out[s],
                  shard_stats[s]);
    });
    for (std::size_t s = 0; s < shard_count; ++s) {
      tally += shard_stats[s];
      for (auto& [key, lookups] : shard_out[s]) {
        auto& merged = out[key];
        merged.insert(merged.end(), lookups.begin(), lookups.end());
      }
    }
  } else {
    match_range(stream, out, tally);
  }
  if (stats != nullptr) *stats = tally;
  for (auto& [key, lookups] : out) {
    std::sort(lookups.begin(), lookups.end(), matched_lookup_less);
  }
  return out;
}

AlgorithmicPattern::AlgorithmicPattern(std::size_t min_label_len,
                                       std::size_t max_label_len,
                                       std::vector<std::string> tlds)
    : min_label_len_(min_label_len),
      max_label_len_(max_label_len),
      tlds_(std::move(tlds)) {
  if (min_label_len_ == 0 || max_label_len_ < min_label_len_) {
    throw ConfigError("AlgorithmicPattern: invalid label length bounds");
  }
  for (const auto& tld : tlds_) {
    if (tld.empty() || tld.front() != '.') {
      throw ConfigError("AlgorithmicPattern: TLDs must start with '.'");
    }
  }
}

bool AlgorithmicPattern::matches(std::string_view domain) const {
  // Find a TLD suffix first.
  const std::string* tld = nullptr;
  for (const auto& candidate : tlds_) {
    if (domain.size() > candidate.size() &&
        domain.substr(domain.size() - candidate.size()) == candidate) {
      tld = &candidate;
      break;
    }
  }
  if (tld == nullptr) return false;
  const std::string_view label = domain.substr(0, domain.size() - tld->size());
  if (label.size() < min_label_len_ || label.size() > max_label_len_) return false;
  // DGA labels here are a single flat label of [a-z0-9] starting with a letter.
  if (label.find('.') != std::string_view::npos) return false;
  if (!(label.front() >= 'a' && label.front() <= 'z')) return false;
  return std::all_of(label.begin(), label.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
  });
}

}  // namespace botmeter::detect
