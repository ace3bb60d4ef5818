#pragma once
// Trace recording and replay for the five irregular apps.
//
// The paper found five apps whose wakelock durations were not reproducible
// run to run, and replaced them with "imitated apps" that replay the time
// and hardware patterns logged in a profiling pass. We reproduce that
// methodology: IrregularApp models the erratic original (heavy-tailed
// holds), record_trace captures its per-delivery holds, and ImitatedApp
// replays the recorded trace verbatim — making NATIVE-vs-SIMTY comparisons
// fair, exactly as in the paper. The profiling pass is prefix-stable (entry
// i depends only on the profile, the seed and i), so an ImitatedApp built
// from (profile, length, seed) draws each entry the first time replay
// reaches it: a short run pays only for the entries it replays, with the
// same holds a full up-front recording would have given.

#include <vector>

#include "apps/app.hpp"

namespace simty::apps {

/// One logged delivery of an app's major alarm.
struct TraceEntry {
  hw::ComponentSet hardware;
  Duration hold;
};

/// A logged behaviour trace of one app.
struct AppTrace {
  std::string app_name;
  std::vector<TraceEntry> entries;
};

/// One task of an irregular original: holds follow a heavy-tailed
/// (lognormal-like) distribution around the profile's base hold instead of
/// the bounded uniform jitter of well-behaved apps. The single hold sampler
/// behind IrregularApp, record_trace and on-demand replay.
TraceEntry sample_irregular_task(const AppProfile& profile, Rng& rng);

/// Models an irregular original (sample_irregular_task per delivery).
class IrregularApp : public ResidentApp {
 public:
  IrregularApp(AppProfile profile, Rng rng);

 protected:
  alarm::TaskSpec next_task() override;
};

/// Replays a trace cyclically; fully deterministic.
class ImitatedApp : public ResidentApp {
 public:
  /// Replays a pre-recorded trace verbatim.
  ImitatedApp(AppProfile profile, AppTrace trace);

  /// Replays record_trace(profile, trace_length, seed), drawing entry i
  /// the first time the cursor reaches it; wraps at `trace_length`.
  ImitatedApp(AppProfile profile, std::size_t trace_length, std::uint64_t seed);

  /// The entries drawn so far (all of them for a pre-recorded trace).
  const AppTrace& trace() const { return trace_; }

  /// Base state plus the replay cursor; the trace itself is reconstructed
  /// from config (same name-hash seed), not serialized — a restored app
  /// redraws the prefix up to the cursor when replay next needs it.
  void save(snapshot::Writer& w) const override;
  void restore(snapshot::SectionReader& s) override;

 protected:
  alarm::TaskSpec next_task() override;

 private:
  AppTrace trace_;
  std::size_t trace_length_;
  Rng probe_;  // draws trace_.entries[trace_.entries.size()] next
  std::size_t cursor_ = 0;
};

/// Profiles an irregular app offline: samples `deliveries` tasks from an
/// IrregularApp with the given seed and returns the logged trace. This is
/// the "logged in advance" step of the paper's §4.1.
AppTrace record_trace(const AppProfile& profile, std::size_t deliveries,
                      std::uint64_t seed);

}  // namespace simty::apps
