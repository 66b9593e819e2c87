#include "trace/split.hpp"

#include <memory>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "trace/io.hpp"

namespace botmeter::trace {

namespace {

std::size_t route_checked(const SplitRoute& route, std::uint32_t server,
                          std::size_t out_count) {
  const std::size_t out = route(server);
  if (out >= out_count) {
    throw DataError("trace split: server " + std::to_string(server) +
                    " routed to output " + std::to_string(out) + " of only " +
                    std::to_string(out_count));
  }
  return out;
}

}  // namespace

std::uint64_t SplitCounts::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : tuples) sum += n;
  return sum;
}

SplitCounts split_observable_text(std::istream& is,
                                  std::span<std::ostream* const> outs,
                                  const SplitRoute& route) {
  if (outs.empty()) throw ConfigError("split_observable_text: no outputs");
  SplitCounts counts;
  counts.tuples.assign(outs.size(), 0);
  for_each_text_block(is, [&](const TextColumns& text) {
    for (std::size_t i = 0; i < text.size(); ++i) {
      const std::size_t out =
          route_checked(route, text.server[i], outs.size());
      // Same line format as write_observable, so each output equals
      // write_observable of the routed subset byte for byte.
      *outs[out] << text.t_ms[i] << '\t' << text.server[i] << '\t'
                 << text.domain[i] << '\n';
      ++counts.tuples[out];
    }
  });
  for (std::size_t i = 0; i < outs.size(); ++i) {
    outs[i]->flush();
    if (!*outs[i]) {
      throw DataError("split_observable_text: write to output " +
                      std::to_string(i) + " failed");
    }
  }
  return counts;
}

SplitCounts split_blocks(std::istream& is,
                         std::span<std::ostream* const> outs,
                         const SplitRoute& route,
                         std::size_t block_tuples) {
  if (outs.empty()) throw ConfigError("split_blocks: no outputs");
  SplitCounts counts;
  counts.tuples.assign(outs.size(), 0);
  std::vector<std::unique_ptr<BlockWriter>> writers;
  writers.reserve(outs.size());
  for (std::ostream* out : outs) {
    writers.push_back(std::make_unique<BlockWriter>(*out, block_tuples));
  }
  for_each_block(is, [&](const dns::LookupColumns& columns,
                         std::span<const std::string_view> table) {
    const std::size_t n = columns.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t out =
          route_checked(route, columns.server[i], outs.size());
      // Each writer re-interns against its own table: ids in a sub-stream
      // are dense in that sub-stream, as a per-border collector would have
      // assigned them.
      writers[out]->append(TimePoint{columns.t_ms[i]},
                           dns::ServerId{columns.server[i]},
                           table[columns.domain[i]]);
      ++counts.tuples[out];
    }
  });
  for (const std::unique_ptr<BlockWriter>& writer : writers) {
    writer->finish();
  }
  return counts;
}

}  // namespace botmeter::trace
