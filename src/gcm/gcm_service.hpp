#pragma once
// GCM-style push channel.
//
// Paper footnote 1: "AlarmManager manages wakeups registered for internal
// tasks, while Google Cloud Messaging (GCM) deals with wakeups caused by
// external messages. The two mechanisms are compatible in Android and
// orthogonal to each other." This module models the device side of that
// second mechanism: a persistent connection kept alive by the service's
// OWN heartbeat alarm (registered through the alarm manager, where it is
// subject to alignment like any other imperceptible alarm), and incoming
// push messages that wake the device, fetch their payload over the Wi-Fi
// link, and hand it to the subscribed app.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "alarm/alarm_manager.hpp"
#include "hw/device.hpp"
#include "hw/wakelock.hpp"
#include "net/wifi_link.hpp"
#include "sim/simulator.hpp"

namespace simty::gcm {

/// An external message addressed to a subscription topic.
struct PushMessage {
  std::string topic;
  std::uint64_t payload_bytes = 512;
  TimePoint sent;
};

/// App-side reaction to a delivered message.
using PushHandler = std::function<void(const PushMessage&)>;

/// Service tunables.
struct GcmConfig {
  /// Connection keepalive period (Android's GCM heartbeat is ~28 min on
  /// Wi-Fi). Registered as a dynamic repeating, CPU+Wi-Fi alarm.
  Duration heartbeat_interval = Duration::seconds(1680);

  /// Radio time for one keepalive exchange.
  Duration heartbeat_hold = Duration::millis(500);

  /// Fallback fetch hold when no Wi-Fi link model is attached.
  Duration default_fetch_hold = Duration::millis(800);
};

/// Device-side push service.
class GcmService {
 public:
  /// `link` may be null (fixed fetch holds). All references must outlive
  /// the service.
  GcmService(sim::Simulator& sim, hw::Device& device,
             hw::WakelockManager& wakelocks, alarm::AlarmManager& manager,
             GcmConfig config, const net::WifiLink* link = nullptr);

  GcmService(const GcmService&) = delete;
  GcmService& operator=(const GcmService&) = delete;

  /// Opens the connection: registers the heartbeat alarm.
  void connect();

  /// Subscribes a topic; at most one handler per topic.
  void subscribe(std::string topic, PushHandler handler);

  /// Called by the push server when a message reaches the radio. Wakes the
  /// device, fetches the payload (Wi-Fi wakelock + CPU), then dispatches
  /// to the topic's handler.
  void on_incoming(PushMessage message);

  std::uint64_t heartbeats() const { return heartbeats_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }  // no subscriber

  /// The alarm id of the heartbeat (empty before connect()).
  std::optional<alarm::AlarmId> heartbeat_alarm() const { return heartbeat_id_; }

 private:
  /// A message between its arrival and its handler. The wake and fetch
  /// callbacks capture its index, not a copy of the message, which keeps
  /// them within EventFn's inline storage.
  struct InFlight {
    PushMessage message;
    hw::WakelockId lock;
    const PushHandler* handler = nullptr;
  };

  /// Device awake: look up the topic and start the payload fetch.
  void start_fetch(std::uint32_t slot);
  /// Fetch done: release the radio and hand the message to its handler.
  void complete_fetch(std::uint32_t slot);
  /// Takes the message out of `slot` and returns the slot for reuse.
  InFlight retire(std::uint32_t slot);

  sim::Simulator& sim_;
  hw::Device& device_;
  hw::WakelockManager& wakelocks_;
  alarm::AlarmManager& manager_;
  GcmConfig config_;
  const net::WifiLink* link_;

  std::map<std::string, PushHandler> handlers_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  std::optional<alarm::AlarmId> heartbeat_id_;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Server-side traffic model: per-topic Poisson message streams.
struct TopicTraffic {
  std::string topic;
  Duration mean_gap;                // exponential inter-arrival
  std::uint64_t payload_bytes = 512;
};

/// Generates push traffic into a GcmService.
class PushServer {
 public:
  PushServer(sim::Simulator& sim, GcmService& service,
             std::vector<TopicTraffic> traffic, Rng rng);

  PushServer(const PushServer&) = delete;
  PushServer& operator=(const PushServer&) = delete;

  void start(TimePoint horizon);

  std::uint64_t sent() const { return sent_; }

 private:
  void spawn(std::size_t topic_index);

  sim::Simulator& sim_;
  GcmService& service_;
  std::vector<TopicTraffic> traffic_;
  Rng rng_;
  TimePoint horizon_;
  std::uint64_t sent_ = 0;
};

}  // namespace simty::gcm
