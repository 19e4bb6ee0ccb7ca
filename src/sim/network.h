// Data-center network model: per-node transfer accounting plus simple
// bandwidth-based timing for unicast and multicast.
//
// Figure 18 plots the *cumulative transfer size at compute nodes*; the
// accountant tracks bytes in/out per node so the bench can report exactly
// that series.
#pragma once

#include <cstdint>
#include <vector>

namespace squirrel::sim {

struct NetworkConfig {
  /// Link bandwidth in bytes/ns. Defaults to QDR InfiniBand (32 Gb/s);
  /// 1 GbE is 0.125 B/ns.
  double bandwidth_bytes_per_ns = 4.0;
  /// Per-message overhead (protocol processing, one round trip).
  double message_overhead_ns = 100e3;
};

class NetworkAccountant {
 public:
  explicit NetworkAccountant(std::uint32_t node_count,
                             NetworkConfig config = {});

  /// Point-to-point transfer; returns the simulated duration in ns.
  double Transfer(std::uint32_t from, std::uint32_t to, std::uint64_t bytes);

  /// One sender, many receivers (IP multicast): the stream is sent once and
  /// counted as received on every target.
  double Multicast(std::uint32_t from, const std::vector<std::uint32_t>& to,
                   std::uint64_t bytes);

  /// Sequential unicast: one full stream per receiver leaves the sender.
  /// Returns the total duration (sender link is the bottleneck).
  double UnicastAll(std::uint32_t from, const std::vector<std::uint32_t>& to,
                    std::uint64_t bytes);

  /// LANTorrent-style pipeline: the stream flows sender -> node1 -> node2
  /// -> ...; every node receives once and forwards once, so the duration is
  /// one transfer plus a per-hop latency, and egress load is spread across
  /// the chain instead of concentrating at the storage node.
  double Pipeline(std::uint32_t from, const std::vector<std::uint32_t>& to,
                  std::uint64_t bytes);

  std::uint64_t bytes_in(std::uint32_t node) const { return in_.at(node); }
  std::uint64_t bytes_out(std::uint32_t node) const { return out_.at(node); }

  /// Sum of bytes received over a node range [first, last).
  std::uint64_t TotalBytesIn(std::uint32_t first, std::uint32_t last) const;

  std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(in_.size());
  }

 private:
  NetworkConfig config_;
  std::vector<std::uint64_t> in_;
  std::vector<std::uint64_t> out_;
};

}  // namespace squirrel::sim
