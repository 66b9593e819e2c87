#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <optional>
#include <sstream>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace botmeter::trace {
namespace {

TEST(TraceIoTest, RawRoundTrip) {
  std::vector<botnet::RawRecord> records{
      {TimePoint{1000}, dns::ClientId{7}, "abc.com", dns::Rcode::kNxDomain},
      {TimePoint{2500}, dns::ClientId{9}, "def.net", dns::Rcode::kAddress},
  };
  std::stringstream ss;
  write_raw(ss, records);
  const auto parsed = read_raw(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].t, TimePoint{1000});
  EXPECT_EQ(parsed[0].client, dns::ClientId{7});
  EXPECT_EQ(parsed[0].domain, "abc.com");
  EXPECT_EQ(parsed[0].rcode, dns::Rcode::kNxDomain);
  EXPECT_EQ(parsed[1].rcode, dns::Rcode::kAddress);
}

TEST(TraceIoTest, ObservableRoundTrip) {
  std::vector<dns::ForwardedLookup> lookups{
      {TimePoint{1000}, dns::ServerId{0}, "abc.com"},
      {TimePoint{-500}, dns::ServerId{3}, "xyz.ru"},
  };
  std::stringstream ss;
  write_observable(ss, lookups);
  const auto parsed = read_observable(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], lookups[0]);
  EXPECT_EQ(parsed[1], lookups[1]);
}

TEST(TraceIoTest, EmptyStreams) {
  std::stringstream ss;
  EXPECT_TRUE(read_raw(ss).empty());
  std::stringstream ss2;
  EXPECT_TRUE(read_observable(ss2).empty());
}

TEST(TraceIoTest, BlankLinesSkipped) {
  std::stringstream ss("\n1000\t0\tabc.com\n\n");
  const auto parsed = read_observable(ss);
  EXPECT_EQ(parsed.size(), 1u);
}

TEST(TraceIoTest, MalformedLinesRejectedWithLineNumber) {
  {
    std::stringstream ss("1000\t0\tabc.com\nnot-a-number\t0\tx.com");
    try {
      (void)read_observable(ss);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
  }
  {
    std::stringstream ss("1000\t7\tabc.com\tMAYBE");
    EXPECT_THROW((void)read_raw(ss), DataError);
  }
  {
    std::stringstream ss("1000\t7");  // missing fields
    EXPECT_THROW((void)read_observable(ss), DataError);
  }
  {
    std::stringstream ss("1000\t7\tabc.com\tA\textra");  // too many fields
    EXPECT_THROW((void)read_raw(ss), DataError);
  }
  {
    std::stringstream ss("1000\t7\t\tA");  // empty domain
    EXPECT_THROW((void)read_raw(ss), DataError);
  }
}

TEST(TraceIoTest, ErrorsNameTheOffendingField) {
  const auto message_for = [](const std::string& text) -> std::string {
    std::stringstream ss(text);
    try {
      (void)read_observable(ss);
    } catch (const DataError& e) {
      return e.what();
    }
    return "";
  };
  // Non-numeric vs out-of-range are distinct diagnoses, and each names the
  // field, the value, and the line.
  EXPECT_NE(message_for("12x4\t0\ta.com").find("non-numeric timestamp '12x4'"),
            std::string::npos);
  EXPECT_NE(message_for("1000\tabc\ta.com").find("non-numeric server id 'abc'"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t99999999999999\ta.com")
                .find("out-of-range server id '99999999999999'"),
            std::string::npos);
  // A negative id into an unsigned field is a range problem, not junk.
  EXPECT_NE(message_for("1000\t-1\ta.com").find("out-of-range server id '-1'"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t0\ta.com\n1000\t0").find(
                "truncated record (2 of 3 fields)"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t0\ta.com\n1000\t0").find("line 2"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t0\ta.com\textra").find(
                "too many fields (expected 3)"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t0\t").find("empty domain"), std::string::npos);
}

TEST(TraceIoTest, RawErrorsNameTheOffendingField) {
  const auto message_for = [](const std::string& text) -> std::string {
    std::stringstream ss(text);
    try {
      (void)read_raw(ss);
    } catch (const DataError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_for("1000\t-7\ta.com\tA").find("out-of-range client id"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t7\ta.com\tMAYBE").find("unknown rcode 'MAYBE'"),
            std::string::npos);
  EXPECT_NE(message_for("1000\t7\ta.com").find("truncated record"),
            std::string::npos);
}

TEST(TraceIoTest, CrlfLinesTolerated) {
  std::stringstream ss("1000\t0\tabc.com\r\n2000\t1\tdef.com\r\n");
  const auto parsed = read_observable(ss);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].domain, "abc.com");
  EXPECT_EQ(parsed[1].forwarder, dns::ServerId{1});

  std::stringstream raw("1000\t7\tabc.com\tNX\r\n");
  const auto raw_parsed = read_raw(raw);
  ASSERT_EQ(raw_parsed.size(), 1u);
  EXPECT_EQ(raw_parsed[0].domain, "abc.com");
}

TEST(TraceIoTest, ForEachObservableStreamsWithoutMaterialising) {
  std::stringstream ss("\n1000\t0\ta.com\n\n2000\t1\tb.com\n");
  std::vector<dns::ForwardedLookup> seen;
  const std::size_t delivered = for_each_observable(
      ss, [&seen](const dns::ForwardedLookup& l) { seen.push_back(l); });
  EXPECT_EQ(delivered, 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (dns::ForwardedLookup{TimePoint{1000}, dns::ServerId{0},
                                           "a.com"}));
  EXPECT_EQ(seen[1], (dns::ForwardedLookup{TimePoint{2000}, dns::ServerId{1},
                                           "b.com"}));

  // Errors carry the physical line number even with blanks interleaved.
  std::stringstream bad("1000\t0\ta.com\n\nbroken");
  std::size_t before_error = 0;
  try {
    (void)for_each_observable(
        bad, [&before_error](const dns::ForwardedLookup&) { ++before_error; });
    FAIL() << "expected DataError";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
  EXPECT_EQ(before_error, 1u);  // everything before the bad line was delivered
}

TEST(TraceIoTest, NegativeTimestampsSupported) {
  std::stringstream ss("-250\t2\tearly.com");
  const auto parsed = read_observable(ss);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].timestamp.millis(), -250);
}

TEST(TraceIoTest, LeadingPlusSignRejected) {
  // Numeric fields are exactly digits-with-optional-minus: "+1000" is a
  // different spelling of a value write_* would emit as "1000", so accepting
  // it would make the text→binary→text round trip non-injective.
  {
    std::stringstream ss("+1000\t0\ta.com");
    try {
      (void)read_observable(ss);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("non-numeric timestamp '+1000'"),
                std::string::npos);
    }
  }
  {
    std::stringstream ss("1000\t+0\ta.com");
    try {
      (void)read_observable(ss);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("non-numeric server id '+0'"),
                std::string::npos);
    }
  }
  {
    std::stringstream ss("1000\t+7\ta.com\tA");
    EXPECT_THROW((void)read_raw(ss), DataError);
  }
}

/// A source that yields `limit` bytes of `text` and then fails like a dying
/// disk (streambuf exception → badbit), instead of signalling EOF.
struct DyingSourceBuf : std::stringbuf {
  DyingSourceBuf(const std::string& text, std::size_t limit)
      : std::stringbuf(text.substr(0, limit)) {}
  int_type underflow() override {
    if (gptr() == egptr()) throw std::runtime_error("simulated disk error");
    return std::stringbuf::underflow();
  }
};

TEST(TraceIoTest, MidReadIoFailureThrowsInsteadOfTruncating) {
  // 3 complete records, stream dies inside the third line. Silent behaviour
  // would be a "valid" 2-record trace; the reader must throw instead, naming
  // the last fully parsed line.
  const std::string text = "1000\t0\ta.com\n2000\t1\tb.com\n3000\t2\tc.com\n";
  {
    DyingSourceBuf buf(text, text.size() - 4);
    std::istream is(&buf);
    std::size_t delivered = 0;
    try {
      (void)for_each_observable(
          is, [&delivered](const dns::ForwardedLookup&) { ++delivered; });
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("stream I/O failure"), std::string::npos);
      EXPECT_NE(what.find("after line 2"), std::string::npos);
    }
    EXPECT_EQ(delivered, 2u);  // complete records were still delivered
  }
  {
    const std::string raw = "1000\t7\ta.com\tA\n2000\t8\tb.com\tNX\n";
    DyingSourceBuf buf(raw, raw.size() - 3);
    std::istream is(&buf);
    EXPECT_THROW((void)read_raw(is), DataError);
  }
}

TEST(TraceIoTest, WriteFailureIsALoudError) {
  // A sink that accepts nothing — a full disk from byte zero.
  struct FullDiskBuf : std::streambuf {
    int_type overflow(int_type) override { return traits_type::eof(); }
  };
  const std::vector<dns::ForwardedLookup> lookups{
      {TimePoint{1000}, dns::ServerId{0}, "a.com"}};
  const std::vector<botnet::RawRecord> records{
      {TimePoint{1000}, dns::ClientId{7}, "a.com", dns::Rcode::kNxDomain}};
  {
    FullDiskBuf buf;
    std::ostream os(&buf);
    try {
      write_observable(os, lookups);
      FAIL() << "expected DataError";
    } catch (const DataError& e) {
      EXPECT_NE(std::string(e.what()).find("disk full or closed stream"),
                std::string::npos);
    }
  }
  {
    FullDiskBuf buf;
    std::ostream os(&buf);
    EXPECT_THROW(write_raw(os, records), DataError);
  }
  // Writing an empty span to a healthy stream stays fine (the check must not
  // misfire on a no-op).
  std::stringstream ok;
  write_observable(ok, {});
  EXPECT_TRUE(ok.str().empty());
}

// --- The chunked text decoder ---------------------------------------------
//
// Every case below is built from kTextReadBuffer itself, so it exercises the
// buffer the decoder really uses: lines that straddle a refill, a CR/LF pair
// split across one, a line longer than the whole buffer.

/// What one decode produced: the tuples in order, how many blocks carried
/// them, and the DataError text if the decode threw.
struct Decoded {
  std::vector<dns::ForwardedLookup> tuples;
  std::size_t blocks = 0;
  std::size_t returned = 0;
  std::optional<std::string> error;
};

Decoded decode(std::istream& is) {
  Decoded out;
  try {
    out.returned = for_each_text_block(is, [&out](const TextColumns& block) {
      ++out.blocks;
      EXPECT_GT(block.size(), 0u);
      EXPECT_EQ(block.server.size(), block.size());
      EXPECT_EQ(block.domain.size(), block.size());
      for (std::size_t i = 0; i < block.size(); ++i) {
        out.tuples.push_back({TimePoint{block.t_ms[i]},
                              dns::ServerId{block.server[i]},
                              std::string(block.domain[i])});
      }
    });
  } catch (const DataError& e) {
    out.error = e.what();
  }
  return out;
}

Decoded decode(const std::string& text) {
  std::istringstream is(text);
  return decode(is);
}

/// `count` canonical lines, t = 1000 + i, server i % 7, domain d<i>.com.
std::string lines(std::size_t count, std::size_t first = 0) {
  std::ostringstream os;
  for (std::size_t i = first; i < first + count; ++i) {
    os << 1000 + i << '\t' << i % 7 << "\td" << i << ".com\n";
  }
  return os.str();
}

/// A line of exactly `width` bytes (newline included) carrying tuple `i`.
std::string line_of_width(std::size_t i, std::size_t width) {
  std::string head = std::to_string(1000 + i) + "\t" + std::to_string(i % 7) +
                     "\td" + std::to_string(i);
  head.append(width - head.size() - 5, 'x');
  return head + ".com\n";
}

/// The oracle: a per-line parser of the same grammar, one getline at a
/// time. Returns the tuples up to the first bad line and that line's number
/// (0 when the whole text parses).
struct Reference {
  std::vector<dns::ForwardedLookup> tuples;
  std::size_t bad_line = 0;
};

Reference reference_parse(const std::string& text) {
  Reference ref;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  const auto integer = [](std::string_view field, auto& out) {
    if (field.empty() || field.front() == '+') return false;
    if (std::is_unsigned_v<std::remove_reference_t<decltype(out)>> &&
        field.front() == '-') {
      return false;
    }
    const auto [ptr, ec] =
        std::from_chars(field.data(), field.data() + field.size(), out);
    return ec == std::errc{} && ptr == field.data() + field.size();
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::size_t a = line.find('\t');
    const std::size_t b =
        a == std::string::npos ? a : line.find('\t', a + 1);
    std::int64_t t = 0;
    std::uint32_t server = 0;
    if (b == std::string::npos || line.find('\t', b + 1) != std::string::npos ||
        b + 1 == line.size() ||
        !integer(std::string_view(line).substr(0, a), t) ||
        !integer(std::string_view(line).substr(a + 1, b - a - 1), server)) {
      ref.bad_line = line_no;
      return ref;
    }
    ref.tuples.push_back(
        {TimePoint{t}, dns::ServerId{server}, line.substr(b + 1)});
  }
  return ref;
}

/// The same text through the per-record adapter, for comparison.
Decoded decode_per_tuple(const std::string& text) {
  Decoded out;
  std::istringstream is(text);
  try {
    out.returned = for_each_observable(
        is, [&out](const dns::ForwardedLookup& l) { out.tuples.push_back(l); });
  } catch (const DataError& e) {
    out.error = e.what();
  }
  return out;
}

void expect_matches_reference(const std::string& text) {
  const Reference ref = reference_parse(text);
  const Decoded got = decode(text);
  EXPECT_EQ(got.tuples, ref.tuples);
  if (ref.bad_line == 0) {
    EXPECT_FALSE(got.error) << *got.error;
    EXPECT_EQ(got.returned, ref.tuples.size());
  } else {
    ASSERT_TRUE(got.error);
    EXPECT_NE(got.error->find("trace parse error at line " +
                              std::to_string(ref.bad_line) + ":"),
              std::string::npos)
        << *got.error;
  }
  const Decoded per_tuple = decode_per_tuple(text);
  EXPECT_EQ(per_tuple.tuples, got.tuples);
  EXPECT_EQ(per_tuple.error, got.error);
}

TEST(TextDecoderTest, LineStraddlingTheBufferBoundary) {
  // 100-byte lines: the first refill ends 44 bytes into line 2622.
  constexpr std::size_t kWidth = 100;
  std::string text;
  std::size_t i = 0;
  while (text.size() + kWidth <= kTextReadBuffer) {
    text += line_of_width(i++, kWidth);
  }
  text += line_of_width(i++, kWidth);
  ASSERT_GT(text.size(), kTextReadBuffer);
  ASSERT_LT(text.size() - kWidth, kTextReadBuffer);
  text += lines(100, i);
  const Decoded got = decode(text);
  EXPECT_GE(got.blocks, 2u);
  expect_matches_reference(text);
}

TEST(TextDecoderTest, CrAtBufferEndWithLfInNextRefill) {
  std::string text;
  std::size_t i = 0;
  while (text.size() + 200 < kTextReadBuffer) text += line_of_width(i++, 100);
  // One CRLF line ending exactly at the refill boundary: its CR is the
  // buffer's last byte, its LF the next refill's first.
  std::string last = line_of_width(i++, kTextReadBuffer - text.size() + 1);
  last.insert(last.size() - 1, "\r");
  last.erase(last.size() - 6, 1);  // keep the width: CR replaces one 'x'
  text += last;
  ASSERT_EQ(text[kTextReadBuffer - 1], '\r');
  ASSERT_EQ(text[kTextReadBuffer], '\n');
  text += "7\t1\tafter.com\r\n";
  const Decoded got = decode(text);
  ASSERT_FALSE(got.error) << *got.error;
  ASSERT_EQ(got.tuples.size(), i + 1);
  EXPECT_EQ(got.tuples[i - 1].domain.back(), 'm');  // no CR left behind
  EXPECT_EQ(got.tuples[i].domain, "after.com");
  expect_matches_reference(text);
}

TEST(TextDecoderTest, LineLongerThanTheBuffer) {
  const std::string long_domain(kTextReadBuffer + kTextReadBuffer / 2, 'q');
  const std::string text =
      lines(3) + "5\t2\t" + long_domain + "\n" + lines(3, 3);
  const Decoded got = decode(text);
  ASSERT_FALSE(got.error) << *got.error;
  ASSERT_EQ(got.tuples.size(), 7u);
  EXPECT_EQ(got.tuples[3].domain, long_domain);
  EXPECT_EQ(got.tuples[6].domain, "d5.com");
  expect_matches_reference(text);
  // A long malformed line names its own line number.
  const Decoded bad = decode(lines(2) + "x\t2\t" + long_domain + "\n");
  ASSERT_TRUE(bad.error);
  EXPECT_NE(bad.error->find("at line 3: non-numeric timestamp 'x'"),
            std::string::npos);
  EXPECT_EQ(bad.tuples.size(), 2u);
}

TEST(TextDecoderTest, LastLineWithoutNewline) {
  std::string text = lines(kTextReadBuffer / 16);
  text += "99\t3\tlast.com";
  const Decoded got = decode(text);
  ASSERT_FALSE(got.error);
  EXPECT_EQ(got.tuples.back(),
            (dns::ForwardedLookup{TimePoint{99}, dns::ServerId{3}, "last.com"}));
  EXPECT_EQ(decode("99\t3\tlast.com\r").tuples.back().domain, "last.com");
  expect_matches_reference(text);
}

TEST(TextDecoderTest, OnlyBlankLines) {
  const std::string text(kTextReadBuffer + 3, '\n');
  const Decoded got = decode(text);
  EXPECT_FALSE(got.error);
  EXPECT_TRUE(got.tuples.empty());
  EXPECT_EQ(got.blocks, 0u);
  EXPECT_EQ(got.returned, 0u);
  EXPECT_TRUE(decode("\r\n\n\r\n").tuples.empty());
}

TEST(TextDecoderTest, NulBytesInsideADomain) {
  std::string text = lines(kTextReadBuffer / 20);
  const std::string domain("a\0b\0.com", 8);
  text += "42\t1\t" + domain + "\n";
  const Decoded got = decode(text);
  ASSERT_FALSE(got.error);
  EXPECT_EQ(got.tuples.back().domain, domain);
  expect_matches_reference(text);
}

TEST(TextDecoderTest, MalformedLineDeliversEveryEarlierTuple) {
  // Bad line inside the first refill, and inside a later one.
  for (const std::size_t good :
       {std::size_t{500}, kTextReadBuffer / 16 + 333}) {
    SCOPED_TRACE(good);
    const std::string text = lines(good) + "1\t2\n" + lines(10, good);
    const Decoded got = decode(text);
    ASSERT_TRUE(got.error);
    EXPECT_NE(got.error->find("trace parse error at line " +
                              std::to_string(good + 1) +
                              ": truncated record (2 of 3 fields) in '1\t2'"),
              std::string::npos)
        << *got.error;
    EXPECT_EQ(got.tuples.size(), good);
    expect_matches_reference(text);
  }
}

/// Serves `limit` bytes of `text` in `chunk`-byte refills, then fails like a
/// dying disk (streambuf exception → badbit) instead of signalling EOF.
struct DyingChunkedBuf : std::streambuf {
  DyingChunkedBuf(std::string text, std::size_t limit, std::size_t chunk)
      : text_(std::move(text)), limit_(limit), chunk_(chunk) {}
  int_type underflow() override {
    if (served_ >= limit_) throw std::runtime_error("simulated disk error");
    const std::size_t n = std::min(chunk_, limit_ - served_);
    char* base = text_.data() + served_;
    setg(base, base, base + n);
    served_ += n;
    return traits_type::to_int_type(*base);
  }
  std::string text_;
  std::size_t limit_, chunk_, served_ = 0;
};

TEST(TextDecoderTest, MidReadIoFailureAfterSeveralRefills) {
  const std::string text = lines(kTextReadBuffer / 8);
  ASSERT_GT(text.size(), 2 * kTextReadBuffer);
  // Die mid-line somewhere in the third refill's worth of bytes.
  const std::size_t limit = 2 * kTextReadBuffer + 1234;
  ASSERT_NE(text[limit - 1], '\n');
  const std::size_t complete = static_cast<std::size_t>(
      std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(limit),
                 '\n'));
  for (const std::size_t chunk : {std::size_t{4096}, kTextReadBuffer * 4}) {
    SCOPED_TRACE(chunk);
    DyingChunkedBuf buf(text, limit, chunk);
    std::istream is(&buf);
    const Decoded got = decode(is);
    ASSERT_TRUE(got.error);
    EXPECT_NE(got.error->find("trace read error after line " +
                              std::to_string(complete) +
                              ": stream I/O failure"),
              std::string::npos)
        << *got.error;
    EXPECT_EQ(got.tuples.size(), complete);
    EXPECT_TRUE(is.bad());
  }
}

TEST(TextDecoderTest, SeededOracleAgreesTupleForTuple) {
  // Random traces of a few refills each: mixed line widths (a few longer
  // than the buffer), blank and CRLF lines, negative timestamps, no final
  // newline on some; every fourth trace carries one malformed line.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const auto pick = [&rng](std::size_t bound) {
      return static_cast<std::size_t>(rng.uniform(bound));
    };
    std::string text;
    const std::size_t target = kTextReadBuffer * (1 + pick(3));
    std::size_t n = 0;
    while (text.size() < target) {
      const std::size_t kind = pick(100);
      if (kind < 3) {
        text += kind == 0 ? "\r\n" : "\n";
        continue;
      }
      const auto t = static_cast<std::int64_t>(pick(std::size_t{1} << 30)) -
                     (kind < 10 ? std::int64_t{1} << 29 : 0);
      std::string domain = "h";
      domain += std::to_string(n++);
      if (kind == 99 && pick(10) == 0) {
        domain.append(kTextReadBuffer + pick(4096), 'z');
      } else {
        domain.append(pick(60), static_cast<char>('a' + n % 26));
      }
      text += std::to_string(t) + "\t" + std::to_string(pick(4096)) + "\t" +
              domain + (kind < 20 ? "\r\n" : "\n");
    }
    if (seed % 4 == 0) {
      const std::size_t at = text.find('\n', pick(text.size() - 1));
      if (at != std::string::npos) text.insert(at + 1, "12\t+3\tbad.com\n");
    }
    if (seed % 3 == 0) text.pop_back();
    expect_matches_reference(text);
  }
}

}  // namespace
}  // namespace botmeter::trace
