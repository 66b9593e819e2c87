#include "trace/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string_view>
#include <type_traits>

#include "common/error.hpp"

namespace botmeter::trace {

namespace {

[[noreturn]] void malformed(std::size_t line_no, std::string_view reason,
                            std::string_view line) {
  throw DataError("trace parse error at line " + std::to_string(line_no) +
                  ": " + std::string(reason) + " in '" + std::string(line) +
                  "'");
}

/// Split `line` into exactly `fields.size()` tab-separated fields; throws a
/// located DataError naming the actual count on mismatch (truncated or
/// over-long collector lines).
void split_tabs(std::string_view line, std::span<std::string_view> fields,
                std::size_t line_no) {
  std::size_t i = 0;
  std::string_view rest = line;
  while (true) {
    const std::size_t tab = rest.find('\t');
    if (i == fields.size()) {
      malformed(line_no, "too many fields (expected " +
                             std::to_string(fields.size()) + ")", line);
    }
    if (tab == std::string_view::npos) {
      fields[i++] = rest;
      break;
    }
    fields[i++] = rest.substr(0, tab);
    rest.remove_prefix(tab + 1);
  }
  if (i != fields.size()) {
    malformed(line_no, "truncated record (" + std::to_string(i) + " of " +
                           std::to_string(fields.size()) + " fields)", line);
  }
}

/// Parse a full-width integer field; distinguishes junk from overflow so the
/// error names the real problem (a 2^40 "server id" is out of range, not
/// merely non-numeric).
///
/// The accepted grammar is exactly digits-with-optional-minus — no leading
/// '+', whitespace, or hex. write_* never emits anything else, and the
/// text↔binary convert round trip is only injective if read_* accepts
/// nothing else; the guard makes the contract explicit (and keeps it if the
/// parser underneath ever changes).
template <typename T>
void parse_int_field(std::string_view s, T& out, std::string_view what,
                     std::size_t line_no, std::string_view line) {
  if (!s.empty() && s.front() == '+') {
    malformed(line_no, "non-numeric " + std::string(what) + " '" +
                           std::string(s) + "'", line);
  }
  const auto* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, out);
  const bool negative_into_unsigned =
      std::is_unsigned_v<T> && !s.empty() && s.front() == '-';
  if (ec == std::errc::result_out_of_range || negative_into_unsigned) {
    malformed(line_no, "out-of-range " + std::string(what) + " '" +
                           std::string(s) + "'", line);
  }
  if (ec != std::errc{} || ptr != end) {
    malformed(line_no, "non-numeric " + std::string(what) + " '" +
                           std::string(s) + "'", line);
  }
}

/// One refill, straight from the stream buffer. istream::read reports
/// nothing read when the buffer throws partway through a request, losing
/// records that arrived intact before the failure, so this never asks for
/// more than the buffer holds: an empty one is refilled with sgetc() first.
/// A buffer that does not say what it holds (stdio-synced std::cin) is read
/// in one request. A throwing buffer sets `bad` and reads as the end.
std::size_t fill(std::streambuf& sb, char* dst, std::size_t room, bool& bad) {
  try {
    if (sb.in_avail() == 0 &&
        std::streambuf::traits_type::eq_int_type(
            sb.sgetc(), std::streambuf::traits_type::eof())) {
      return 0;
    }
    const std::streamsize avail = sb.in_avail();
    const auto want = static_cast<std::streamsize>(room);
    const std::streamsize got =
        sb.sgetn(dst, avail > 0 ? std::min(avail, want) : want);
    return got > 0 ? static_cast<std::size_t>(got) : 0;
  } catch (...) {
    bad = true;
    return 0;
  }
}

/// The line splitter behind every text reader. Reads `is` in
/// kTextReadBuffer refills and calls `on_line(view, line_no)` for every
/// non-blank line, with one trailing CR stripped (CRLF traces); the view
/// points into the buffer. `chunk_end()` runs whenever the views handed out
/// so far are about to die: before each refill, before a throw and at the
/// end, so a reader may batch them until then. A mid-read I/O failure (a
/// throwing stream buffer, or badbit) is never read as a shorter trace:
/// the complete lines before it are delivered, the partial one is dropped,
/// and a DataError names the last complete line.
template <typename OnLine, typename OnChunkEnd>
void scan_lines(std::istream& is, OnLine&& on_line, OnChunkEnd&& chunk_end) {
  std::vector<char> buf(kTextReadBuffer);
  std::size_t begin = 0;  // unconsumed bytes are [begin, end)
  std::size_t end = 0;
  std::size_t line_no = 0;
  bool bad = is.bad();
  bool at_end = !is;
  const auto deliver = [&](std::string_view line) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) return;
    try {
      on_line(line, line_no);
    } catch (...) {
      chunk_end();
      throw;
    }
  };
  while (true) {
    while (const void* nl = std::memchr(buf.data() + begin, '\n', end - begin)) {
      const auto stop =
          static_cast<std::size_t>(static_cast<const char*>(nl) - buf.data());
      ++line_no;
      deliver(std::string_view(buf.data() + begin, stop - begin));
      begin = stop + 1;
    }
    if (at_end) break;
    chunk_end();
    std::memmove(buf.data(), buf.data() + begin, end - begin);
    end -= begin;
    begin = 0;
    if (end == buf.size()) buf.resize(2 * buf.size());  // one line fills it
    const std::size_t got = fill(*is.rdbuf(), buf.data() + end,
                                 buf.size() - end, bad);
    end += got;
    at_end = got == 0;
  }
  if (bad) {
    chunk_end();
    is.setstate(std::ios::badbit);
    throw DataError("trace read error after line " + std::to_string(line_no) +
                    ": stream I/O failure (not EOF) — trace is truncated");
  }
  if (begin < end) {  // a last line with no newline
    ++line_no;
    deliver(std::string_view(buf.data() + begin, end - begin));
  }
  chunk_end();
  is.setstate(std::ios::eofbit | std::ios::failbit);
}

/// write_* never observes individual insertions; a full disk or closed pipe
/// only shows up in the stream state. Flush and check once per call so a
/// truncated output file is a loud error, never a silent one.
void check_write_stream(std::ostream& os, std::string_view what) {
  os.flush();
  if (!os) {
    throw DataError("trace write failed (" + std::string(what) +
                    "): disk full or closed stream");
  }
}

}  // namespace

void write_raw(std::ostream& os, std::span<const botnet::RawRecord> records) {
  for (const botnet::RawRecord& r : records) {
    os << r.t.millis() << '\t' << r.client.value() << '\t' << r.domain << '\t'
       << (r.rcode == dns::Rcode::kAddress ? "A" : "NX") << '\n';
  }
  check_write_stream(os, "raw trace");
}

void write_observable(std::ostream& os,
                      std::span<const dns::ForwardedLookup> lookups) {
  for (const dns::ForwardedLookup& l : lookups) {
    os << l.timestamp.millis() << '\t' << l.forwarder.value() << '\t'
       << l.domain << '\n';
  }
  check_write_stream(os, "observable trace");
}

std::vector<botnet::RawRecord> read_raw(std::istream& is) {
  std::vector<botnet::RawRecord> records;
  scan_lines(
      is,
      [&records](std::string_view line, std::size_t line_no) {
        std::string_view fields[4];
        split_tabs(line, fields, line_no);
        std::int64_t t_ms = 0;
        std::uint32_t client = 0;
        parse_int_field(fields[0], t_ms, "timestamp", line_no, line);
        parse_int_field(fields[1], client, "client id", line_no, line);
        if (fields[2].empty()) malformed(line_no, "empty domain", line);
        dns::Rcode rcode;
        if (fields[3] == "A") {
          rcode = dns::Rcode::kAddress;
        } else if (fields[3] == "NX") {
          rcode = dns::Rcode::kNxDomain;
        } else {
          malformed(line_no, "unknown rcode '" + std::string(fields[3]) + "'",
                    line);
        }
        records.push_back(botnet::RawRecord{TimePoint{t_ms},
                                            dns::ClientId{client},
                                            std::string(fields[2]), rcode});
      },
      [] {});
  return records;
}

std::vector<dns::ForwardedLookup> read_observable(std::istream& is) {
  std::vector<dns::ForwardedLookup> lookups;
  for_each_observable(is, [&lookups](const dns::ForwardedLookup& l) {
    lookups.push_back(l);
  });
  return lookups;
}

std::size_t for_each_text_block(
    std::istream& is, const std::function<void(const TextColumns&)>& sink) {
  std::vector<std::int64_t> t_ms;
  std::vector<std::uint32_t> server;
  std::vector<std::string_view> domain;
  std::size_t delivered = 0;
  scan_lines(
      is,
      [&](std::string_view line, std::size_t line_no) {
        std::string_view fields[3];
        split_tabs(line, fields, line_no);
        std::int64_t t = 0;
        std::uint32_t s = 0;
        parse_int_field(fields[0], t, "timestamp", line_no, line);
        parse_int_field(fields[1], s, "server id", line_no, line);
        if (fields[2].empty()) malformed(line_no, "empty domain", line);
        t_ms.push_back(t);
        server.push_back(s);
        domain.push_back(fields[2]);
      },
      [&] {
        if (t_ms.empty()) return;
        sink(TextColumns{t_ms, server, domain});
        delivered += t_ms.size();
        t_ms.clear();
        server.clear();
        domain.clear();
      });
  return delivered;
}

std::size_t for_each_observable(
    std::istream& is,
    const std::function<void(const dns::ForwardedLookup&)>& sink) {
  return for_each_text_block(is, [&sink](const TextColumns& block) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      sink(dns::ForwardedLookup{TimePoint{block.t_ms[i]},
                                dns::ServerId{block.server[i]},
                                std::string(block.domain[i])});
    }
  });
}

}  // namespace botmeter::trace
