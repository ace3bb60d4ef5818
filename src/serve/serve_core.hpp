#pragma once
// Result-cached sweep serving with common-prefix warm starts.
//
// ServeCore is the transport-free brain of the simty_serve daemon: it
// decodes request frames, answers repeated identical requests from a
// result cache keyed by the canonical request encoding, and accelerates
// β-sweeps by snapshotting the standby prefix the sweep points share. The
// wire codec is the snapshot container itself (snapshot/snapshot.hpp) —
// one hardened, bounds-checked decoder for run state, checkpoints, and the
// protocol, so a hostile frame hits the same SIMTY_CHECK rejection paths
// the fuzz tests cover.
//
// The warm-start lever (see exp/run.hpp): requests that differ only in
// beta_switch.beta share a byte-identical run prefix up to the switch
// instant, because β lives in the switch event's closure and never in the
// serialized state. The first sweep point pays for the prefix and parks a
// snapshot in an LRU store keyed by the β-blind request encoding; every
// other point restores it and simulates only the post-switch tail. Both
// caches compare whole keys, so distinct requests never share an entry.

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "exp/experiment.hpp"

namespace simty::serve {

/// Protocol version for every section the serve layer writes.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// The subset of ExperimentConfig a sweep client can pose. Kept small on
/// purpose: every field is part of the cache keys, so adding one is a
/// cache-compatibility change.
struct Request {
  exp::PolicyKind policy = exp::PolicyKind::kSimty;
  exp::WorkloadKind workload = exp::WorkloadKind::kLight;
  Duration duration = Duration::hours(3);
  std::uint64_t seed = 1;
  bool doze = false;
  bool system_alarms = true;
  std::optional<exp::ExperimentConfig::BetaSwitch> beta_switch;
};

/// The metric rows a sweep plot needs, plus cache provenance.
struct Response {
  bool cached = false;        // answered from the result cache
  bool warm_started = false;  // computed by resuming a shared prefix
  std::string policy_name;
  double total_j = 0.0;
  double awake_total_j = 0.0;
  double average_power_mw = 0.0;
  double projected_standby_hours = 0.0;
  double delay_perceptible = 0.0;
  double delay_imperceptible = 0.0;
  double delay_imperceptible_p95 = 0.0;
  double deliveries = 0.0;
  double batches_delivered = 0.0;
  double one_shots = 0.0;
  double awake_seconds = 0.0;
  double asleep_seconds = 0.0;
  double worst_gap_ratio = 0.0;
  std::uint64_t gap_violations = 0;
  std::uint64_t perceptible_window_misses = 0;
};

/// Cache effectiveness counters (the "simty-stats" command).
struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t result_hits = 0;
  std::uint64_t result_misses = 0;
  std::uint64_t prefix_hits = 0;    // warm starts served from the store
  std::uint64_t prefix_misses = 0;  // cold prefixes simulated (and stored)
  std::uint64_t snapshots_stored = 0;
  std::uint64_t snapshots_evicted = 0;
};

// --- Codec (container sections "simty-request" / "simty-response" /
// "simty-stats"; malformed input throws std::logic_error via SIMTY_CHECK).

std::string encode_request(const Request& req);
Request decode_request(const std::string& bytes);
std::string encode_response(const Response& resp);
Response decode_response(const std::string& bytes);
std::string encode_stats_request();
std::string encode_stats(const ServeStats& stats);
ServeStats decode_stats(const std::string& bytes);

/// The key of the prefix store: the canonical request encoding with
/// beta_switch.beta zeroed, so the points of one sweep share it. The seed
/// stays in — a prefix is seed-specific. (The result cache is keyed on the
/// full encoding, encode_request.)
std::string prefix_key(const Request& req);

/// Transport-free server core. Single-threaded, like the stack it runs.
class ServeCore {
 public:
  /// `max_snapshots` bounds the prefix store (LRU eviction); run snapshots
  /// are a few hundred KB each, so the default keeps the daemon small.
  explicit ServeCore(std::size_t max_snapshots = 8);

  /// Answers one run request (cache → warm start → cold run, in that
  /// order of preference).
  Response handle(const Request& req);

  /// Decodes one protocol frame ("simty-request" or "simty-stats") and
  /// returns the encoded reply. Malformed frames throw std::logic_error —
  /// the transport turns that into an error reply, never a crash.
  std::string handle_frame(const std::string& bytes);

  const ServeStats& stats() const { return stats_; }

 private:
  /// Warm starts need the prefix strictly before the switch instant; the
  /// margin absorbs advance_to_quiescent stepping past the target.
  static constexpr Duration kPrefixMargin = Duration::minutes(1);

  Response run_request(const Request& req);
  const std::string* store_lookup(const std::string& key);
  void store_insert(std::string key, std::string bytes);

  std::size_t max_snapshots_;
  ServeStats stats_;
  std::map<std::string, Response> results_;  // keyed by encode_request
  // LRU prefix store: recency list front = most recent; it points at the
  // map's keys (map nodes never move), and map values point into the list.
  struct StoredSnapshot {
    std::string bytes;
    std::list<const std::string*>::iterator recency;
  };
  std::list<const std::string*> recency_;
  std::map<std::string, StoredSnapshot> snapshots_;
};

}  // namespace simty::serve
