// bench_gen — write one benchmark workload to disk from a seed.
//
// Simulates a DGA botnet behind `--servers` local DNS servers with the
// library's own engine, optionally interleaves Zipf-popular benign lookups,
// and writes:
//   <out>/trace.txt|trace.bin   the border trace in the workload's codec
//   <out>/setup.txt|setup.bin   the same trace cut to its first tuple
//   <out>/truth.json            per-(server, epoch) true active populations
//
// Usage:
//   bench_gen --family <name> --servers n --epochs n --seed s
//             (--bots-per-server b | --skew-top b --skew-exponent x)
//             [--benign-ratio r] --codec text|binary --out <dir>
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "botnet/simulator.hpp"
#include "common/rng.hpp"
#include "dga/families.hpp"
#include "trace/block.hpp"
#include "trace/io.hpp"

namespace {

using namespace botmeter;

/// Distinct benign names the Zipf mix draws from.
constexpr std::size_t kBenignVocab = 100000;

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 == 0) throw std::runtime_error("flags come in --name value pairs");
  return args;
}

const std::string& need(const std::map<std::string, std::string>& args,
                        const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::runtime_error("missing " + key);
  return it->second;
}

/// Bots per server. Uniform fleets give every server the same count; skewed
/// ones follow a Zipf law over server rank (server 0 heaviest), at least one
/// bot each. Ranks are placed in server order on purpose: contiguous heavy
/// servers share a range shard, so the straggler shard is the same for every
/// seed.
std::vector<std::uint32_t> placement(const std::map<std::string, std::string>& args,
                                     std::size_t servers) {
  std::vector<std::uint32_t> counts(servers);
  if (args.contains("--bots-per-server")) {
    std::fill(counts.begin(), counts.end(),
              static_cast<std::uint32_t>(std::stoul(need(args, "--bots-per-server"))));
    return counts;
  }
  const double top = std::stod(need(args, "--skew-top"));
  const double exponent = std::stod(need(args, "--skew-exponent"));
  for (std::size_t r = 0; r < servers; ++r) {
    const double n = std::round(top / std::pow(static_cast<double>(r + 1), exponent));
    counts[r] = static_cast<std::uint32_t>(std::max(1.0, n));
  }
  return counts;
}

/// Benign lookups: Zipf(1) ranks over `vocab` names, uniform times within the
/// DGA trace's span, uniform servers; sorted by time.
std::vector<dns::ForwardedLookup> benign_lookups(std::size_t count, std::size_t vocab,
                                                 std::size_t servers, std::int64_t t_lo,
                                                 std::int64_t t_hi, Rng& rng) {
  std::vector<double> cdf(vocab);
  double sum = 0.0;
  for (std::size_t r = 0; r < vocab; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf[r] = sum;
  }
  std::vector<dns::ForwardedLookup> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform01() * sum;
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const TimePoint t{rng.uniform_range(t_lo, t_hi)};
    const dns::ServerId server{static_cast<std::uint32_t>(rng.uniform(servers))};
    std::string domain = "w";
    domain += std::to_string(std::min(rank, vocab - 1));
    domain += ".popular-site.example";
    out.push_back(dns::ForwardedLookup{t, server, std::move(domain)});
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });
  return out;
}

/// Two-pointer merge by timestamp; DGA tuples go first on ties and keep their
/// own order even where the simulator emitted them slightly out of order.
std::vector<dns::ForwardedLookup> interleave(std::vector<dns::ForwardedLookup> dga,
                                             std::vector<dns::ForwardedLookup> benign) {
  std::vector<dns::ForwardedLookup> out;
  out.reserve(dga.size() + benign.size());
  std::size_t j = 0;
  for (auto& lookup : dga) {
    while (j < benign.size() && benign[j].timestamp < lookup.timestamp) {
      out.push_back(std::move(benign[j++]));
    }
    out.push_back(std::move(lookup));
  }
  for (; j < benign.size(); ++j) out.push_back(std::move(benign[j]));
  return out;
}

void write_trace(const std::string& path, bool binary,
                 std::span<const dns::ForwardedLookup> lookups) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + path);
  if (binary) {
    trace::write_blocks(file, lookups);
  } else {
    trace::write_observable(file, lookups);
  }
  file.flush();
  if (!file) throw std::runtime_error("write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto start = std::chrono::steady_clock::now();
    const auto args = parse_args(argc, argv);
    const std::size_t servers = std::stoul(need(args, "--servers"));
    const std::int64_t epochs = std::stoll(need(args, "--epochs"));
    const std::uint64_t seed = std::stoull(need(args, "--seed"));
    const std::string codec = need(args, "--codec");
    const std::string out = need(args, "--out");
    if (codec != "text" && codec != "binary") throw std::runtime_error("bad --codec");
    const bool binary = codec == "binary";

    const std::vector<std::uint32_t> counts = placement(args, servers);
    std::vector<std::uint32_t> owner;  // bot id -> server
    for (std::size_t s = 0; s < servers; ++s) owner.insert(owner.end(), counts[s],
                                                           static_cast<std::uint32_t>(s));

    botnet::SimulationConfig sim;
    sim.dga = dga::family_config(need(args, "--family"));
    sim.bot_count = static_cast<std::uint32_t>(owner.size());
    sim.server_count = servers;
    sim.epoch_count = epochs;
    sim.seed = seed;
    sim.record_raw = false;
    sim.client_assignment = [&owner](dns::ClientId client) {
      return dns::ServerId{owner.at(client.value())};
    };
    botnet::SimulationResult result = botnet::simulate(sim);
    if (result.observable.empty()) throw std::runtime_error("empty simulation");

    const std::size_t dga_tuples = result.observable.size();
    const double ratio = args.contains("--benign-ratio")
                             ? std::stod(need(args, "--benign-ratio"))
                             : 0.0;
    std::vector<dns::ForwardedLookup> lookups = std::move(result.observable);
    std::size_t benign_tuples = 0;
    if (ratio > 0.0) {
      std::int64_t t_lo = lookups.front().timestamp.millis();
      std::int64_t t_hi = t_lo;
      for (const auto& l : lookups) {
        t_lo = std::min(t_lo, l.timestamp.millis());
        t_hi = std::max(t_hi, l.timestamp.millis());
      }
      benign_tuples = static_cast<std::size_t>(ratio * static_cast<double>(dga_tuples));
      Rng rng{stream_seed(seed, 0xBE9199ULL)};
      lookups = interleave(std::move(lookups),
                           benign_lookups(benign_tuples, kBenignVocab, servers, t_lo, t_hi, rng));
    }

    const std::string ext = binary ? ".bin" : ".txt";
    write_trace(out + "/trace" + ext, binary, lookups);
    write_trace(out + "/setup" + ext, binary, std::span(lookups).first(1));

    const double gen_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    std::ofstream truth(out + "/truth.json");
    truth << "{\"servers\": " << servers << ", \"epochs\": " << epochs
          << ", \"bots\": " << owner.size() << ", \"tuples\": " << lookups.size()
          << ", \"dga_tuples\": " << dga_tuples << ", \"benign_tuples\": " << benign_tuples
          << ", \"gen_s\": " << gen_s << ", \"bots_per_server\": [";
    for (std::size_t s = 0; s < servers; ++s) truth << (s ? ", " : "") << counts[s];
    truth << "], \"truth\": [";
    for (std::size_t e = 0; e < result.truth.size(); ++e) {
      const botnet::EpochTruth& t = result.truth[e];
      truth << (e ? ", " : "") << "{\"epoch\": " << t.epoch << ", \"active_per_server\": [";
      for (std::size_t s = 0; s < t.active_per_server.size(); ++s) {
        truth << (s ? ", " : "") << t.active_per_server[s];
      }
      truth << "]}";
    }
    truth << "]}\n";
    truth.flush();
    if (!truth) throw std::runtime_error("write failed: truth.json");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_gen: %s\n", e.what());
    return 1;
  }
}
