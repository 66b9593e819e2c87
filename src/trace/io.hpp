// Text (de)serialisation of the raw and observable datasets.
//
// One record per line, tab-separated, millisecond timestamps:
//   raw:        <t_ms> \t <client> \t <domain> \t <A|NX>
//   observable: <t_ms> \t <server> \t <domain>
// The format is deliberately trivial — it exists so traces can be produced
// once, archived, and re-analyzed, and so external collectors can feed
// BotMeter.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "botnet/simulator.hpp"
#include "dns/vantage.hpp"

namespace botmeter::trace {

/// Serialise; flushes and throws DataError if the stream failed (a full
/// disk or closed pipe is a loud error, never a silently truncated file).
void write_raw(std::ostream& os, std::span<const botnet::RawRecord> records);
void write_observable(std::ostream& os,
                      std::span<const dns::ForwardedLookup> lookups);

/// Parse; throws DataError on malformed input. Errors carry the 1-based line
/// number and name the offending field ("non-numeric timestamp",
/// "out-of-range server id", ...) — a truncated or corrupted collector line
/// is always a loud, located failure, never a silent skip. A mid-read I/O
/// failure (stream badbit) likewise throws instead of masquerading as EOF.
/// Numeric fields accept exactly digits-with-optional-minus (no '+', no
/// whitespace), so read ∘ write is the identity on the emitted bytes.
/// Blank lines are skipped; a trailing CR (CRLF collectors) is tolerated.
[[nodiscard]] std::vector<botnet::RawRecord> read_raw(std::istream& is);
[[nodiscard]] std::vector<dns::ForwardedLookup> read_observable(std::istream& is);

/// Bytes the text readers pull from the stream per refill. Lines are parsed
/// in place inside one buffer of this size; only a single line longer than
/// the buffer grows it (to the next power of two that holds the line).
inline constexpr std::size_t kTextReadBuffer = std::size_t{256} << 10;

/// Columnar view of the observable records parsed from one buffer refill.
/// `domain` views point into the decoder's buffer: all three spans are only
/// valid for the duration of the sink call.
struct TextColumns {
  std::span<const std::int64_t> t_ms;
  std::span<const std::uint32_t> server;
  std::span<const std::string_view> domain;

  [[nodiscard]] std::size_t size() const { return t_ms.size(); }
};

/// The observable text decoder: hand `sink` the records of each buffer
/// refill as columns, in trace order, with no per-record allocation — its
/// memory is O(kTextReadBuffer), whatever the trace's length or number of
/// distinct domains. Same validation and error reporting as
/// read_observable; before any DataError, every record of an earlier line
/// has been delivered. Returns the number of records delivered.
std::size_t for_each_text_block(
    std::istream& is, const std::function<void(const TextColumns&)>& sink);

/// for_each_text_block, one owned lookup at a time.
std::size_t for_each_observable(
    std::istream& is, const std::function<void(const dns::ForwardedLookup&)>& sink);

}  // namespace botmeter::trace
