// serve: one closed-loop client driving serve::ServeCore in-process. It
// encodes each request, calls handle_frame, and decodes the reply before
// sending the next; sweep clients wait for every reply and the daemon is
// serial, so a closed loop is the faithful model. This is the only workload
// that exercises the snapshot layer and the serve caches.
//
// The stream is beta-sweeps on the light 3 h workload (16 points, switch at
// minute 172). An episode mixes:
//   (a) seed-major sweeps of 4 interleaved seeds: their prefixes fit the
//       8-slot prefix store, so every point after a seed's first is a warm
//       start;
//   (b) one point-major sweep over 12 seeds, more than the store holds, so
//       every point evicts and misses;
//   (c) repeats of answered requests (about a quarter of the stream), which
//       the result cache answers;
//   (d) two plain runs of other policies or of doze, rotating through
//       NATIVE, EXACT, SIMTY with doze and SIMTY-DUR. Few enough that the
//       p99 request lies inside the miss class, not at its border with
//       these slower runs.
// A session is two episodes on one ServeCore (one daemon lifetime), so the
// result cache, and with it the resident set, does not grow with the
// number of requests a run completes.
//
// Checks: every reply decodes and matches its request's policy, repeats are
// cache hits, a sample of warm and cached replies equals what a fresh
// ServeCore answers, and each session's stats satisfy
// requests == result_hits + result_misses == well-formed frames sent.

#include <optional>

#include "exp/run.hpp"
#include "harness.hpp"
#include "serve/serve_core.hpp"

namespace perfbench {

namespace {

using namespace simty;

constexpr Duration kSwitchAt = Duration::minutes(172);
// ServeCore parks its prefix this long before the switch.
constexpr Duration kPrefixMargin = Duration::minutes(1);
constexpr int kEpisodesPerSession = 2;
constexpr std::size_t kChecksPerClass = 24;  // sampled warm / cached replies

struct StreamSizes {
  int points;
  int fit_seeds;     // (a): fits the store
  int fit_blocks;
  int thrash_seeds;  // (b): exceeds the store
  int plain;         // (d)
};

StreamSizes stream_sizes(const Options& opt) {
  return opt.tiny ? StreamSizes{3, 2, 1, 9, 2} : StreamSizes{16, 4, 3, 12, 2};
}

enum class Tag { kFit, kThrash, kPlain, kRepeat, kMalformed };

struct Planned {
  serve::Request req;
  Tag tag = Tag::kPlain;
};

serve::Request sweep_point(std::uint64_t seed, int point) {
  serve::Request r;
  r.policy = exp::PolicyKind::kSimty;
  r.workload = exp::WorkloadKind::kLight;
  r.duration = Duration::hours(3);
  r.seed = seed;
  r.beta_switch = exp::ExperimentConfig::BetaSwitch{kSwitchAt, 0.50 + 0.03 * point};
  return r;
}

/// Appends one point-major sweep over `seeds` fresh seeds.
void add_sweep(std::vector<Planned>& out, InputRng& rng, int seeds, int points, Tag tag) {
  std::vector<std::uint64_t> s;
  for (int i = 0; i < seeds; ++i) s.push_back(rng.next());
  for (int p = 0; p < points; ++p) {
    for (const std::uint64_t seed : s) out.push_back({sweep_point(seed, p), tag});
  }
}

/// One episode of the stream; `history` holds the session's requests so
/// far and receives this episode's (repeats are drawn from it).
std::vector<Planned> make_episode(InputRng& rng, const StreamSizes& size, int episode_index,
                                  std::vector<serve::Request>& history) {
  std::vector<Planned> base;
  add_sweep(base, rng, size.fit_seeds, size.points, Tag::kFit);
  add_sweep(base, rng, size.thrash_seeds, size.points, Tag::kThrash);
  for (int b = 1; b < size.fit_blocks; ++b) {
    add_sweep(base, rng, size.fit_seeds, size.points, Tag::kFit);
  }
  const exp::PolicyKind plain[] = {exp::PolicyKind::kNative, exp::PolicyKind::kExact,
                                   exp::PolicyKind::kSimty, exp::PolicyKind::kSimtyDuration};
  for (int i = 0; i < size.plain; ++i) {
    serve::Request r;
    r.policy = plain[(episode_index * size.plain + i) % 4];
    r.doze = r.policy == exp::PolicyKind::kSimty;
    r.seed = rng.next();
    base.push_back({r, Tag::kPlain});
  }
  std::vector<Planned> out;
  for (const Planned& p : base) {
    out.push_back(p);
    history.push_back(p.req);
    if (rng.below(3) == 0) {
      out.push_back({history[rng.below(history.size())], Tag::kRepeat});
    }
  }
  return out;
}

exp::ExperimentConfig to_config(const serve::Request& req) {
  exp::ExperimentConfig c;
  c.policy = req.policy;
  c.workload = req.workload;
  c.duration = req.duration;
  c.seed = req.seed;
  c.doze = req.doze;
  c.system_alarms = req.system_alarms;
  c.beta_switch = req.beta_switch;
  return c;
}

std::string canonical(serve::Response r) {
  r.cached = false;
  r.warm_started = false;
  return serve::encode_response(r);
}

struct Session {
  std::optional<serve::ServeCore> core;
  std::vector<serve::Request> history;
  std::uint64_t frames = 0;  // well-formed request frames sent
  int episodes = 0;
};

struct HitCount {
  double eligible = 0;
  double warm = 0;
  double ratio() const { return eligible > 0 ? warm / eligible : 0.0; }
};

}  // namespace

void run_serve_workload(const Options& opt, Report& report) {
  const StreamSizes size = stream_sizes(opt);
  InputRng rng(opt.seed);
  LatencySamples latency;
  HostSpeed speed;
  speed.sample();

  // Set-up: ServeCore construction, the first episode's requests, and an
  // untimed warm-up sweep of the (a) kind on seeds the stream never uses.
  std::vector<double> setup_s;
  Session session;
  std::vector<Planned> episode;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    session = Session{};
    session.core.emplace();
    episode = make_episode(rng, size, 0, session.history);
    std::vector<Planned> warmup;
    add_sweep(warmup, rng, size.fit_seeds, size.points, Tag::kFit);
    for (const Planned& p : warmup) {
      serve::decode_response(session.core->handle_frame(serve::encode_request(p.req)));
    }
    session.frames = warmup.size();
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (opt.inject_malformed > 0) {
    std::vector<Planned> mixed;
    int left = opt.inject_malformed;
    for (std::size_t i = 0; i < episode.size(); ++i) {
      if (left > 0 && i % 5 == 4) {
        mixed.push_back({episode[i].req, Tag::kMalformed});
        --left;
      }
      mixed.push_back(episode[i]);
    }
    episode = std::move(mixed);
  }

  SpanLog spans(opt.trace);
  std::vector<double> hit_ms, warm_ms, miss_ms;
  double codec_s = 0.0;
  double traced_wall = 0.0, traced_reqs = 0.0, untraced_wall = 0.0, untraced_reqs = 0.0;
  std::vector<std::pair<serve::Request, serve::Response>> warm_checks, hit_checks;
  std::uint64_t warm_seen = 0, hit_seen = 0;
  // First-session figures, deterministic for a seed.
  bool first_session = true;
  std::optional<serve::ServeStats> first_stats;
  HitCount fit_hits, thrash_hits;
  std::uint64_t digest = fnv1a64("");
  // Snapshot probe (traced run).
  std::vector<double> prefix_ms, save_us, restore_us;
  double probe_bytes = 0.0, probe_count = 0.0;
  bool probe_bytes_fixed = false;

  auto end_session = [&] {
    report.attempt();  // the stats request
    const serve::ServeStats st =
        serve::decode_stats(session.core->handle_frame(serve::encode_stats_request()));
    if (st.requests != st.result_hits + st.result_misses || st.requests != session.frames) {
      report.fail(1, "serve stats do not add up");
    }
    if (first_session) first_stats = st;
    first_session = false;
  };

  // Outside the ServeCore: prefix, save and restore on a sweep point's
  // config, resumed to the end and compared with the straight run.
  auto probe_snapshot = [&](const serve::Request& req, std::uint64_t op) {
    report.attempt();
    const exp::ExperimentConfig cfg = to_config(req);
    const SpanLog::Scope probe(spans, "snapshot.probe", op);
    std::optional<exp::Run> run;
    {
      const SpanLog::Scope s(spans, "exp.build", op);
      run.emplace(cfg);
    }
    auto t = Clock::now();
    {
      const SpanLog::Scope s(spans, "exp.prefix", op);
      run->advance_to_quiescent(TimePoint::origin() + (kSwitchAt - kPrefixMargin));
    }
    prefix_ms.push_back(seconds_between(t, Clock::now()) * 1e3);
    std::string bytes;
    t = Clock::now();
    {
      const SpanLog::Scope s(spans, "snapshot.save", op);
      bytes = run->save_snapshot();
    }
    save_us.push_back(seconds_between(t, Clock::now()) * 1e6);
    std::optional<exp::Run> resumed;
    {
      const SpanLog::Scope s(spans, "exp.build", op);
      resumed.emplace(cfg);
    }
    t = Clock::now();
    {
      const SpanLog::Scope s(spans, "snapshot.restore", op);
      resumed->restore_snapshot(bytes);
    }
    restore_us.push_back(seconds_between(t, Clock::now()) * 1e6);
    const SpanLog::Scope s(spans, "exp.finish", op);
    if (result_bytes(resumed->finish()) != result_bytes(run->finish())) {
      report.fail(1, "snapshot probe: resumed run differs from the straight run");
    }
    if (!probe_bytes_fixed) {
      probe_bytes += static_cast<double>(bytes.size());
      probe_count += 1;
    }
  };

  std::uint64_t op = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (int ep = 0; first_session || Clock::now() < deadline; ++ep) {
    if (ep > 0) episode = make_episode(rng, size, ep, session.history);
    const bool traced = opt.trace && ep % 2 == 1;
    SpanLog quiet(false);
    SpanLog& log = traced ? spans : quiet;
    const auto e0 = Clock::now();
    std::uint64_t sent = 0;
    for (const Planned& p : episode) {
      report.attempt();
      ++sent;
      const std::uint64_t id = op++;
      try {
        const SpanLog::Scope request_span(log, "serve.request", id);
        const auto t0 = Clock::now();
        std::string frame;
        {
          const SpanLog::Scope s(log, "codec.encode", id);
          frame = serve::encode_request(p.req);
          if (p.tag == Tag::kMalformed) frame.resize(frame.size() - 3);
        }
        const auto t1 = Clock::now();
        std::string reply;
        {
          const SpanLog::Scope s(log, "serve.handle_frame", id);
          reply = session.core->handle_frame(frame);
        }
        ++session.frames;
        const auto t2 = Clock::now();
        std::optional<serve::Response> resp;
        {
          const SpanLog::Scope s(log, "codec.decode", id);
          resp.emplace(serve::decode_response(reply));
        }
        const auto t3 = Clock::now();
        const double ms = seconds_between(t0, t3) * 1e3;
        latency.add(ms);
        codec_s += seconds_between(t0, t1) + seconds_between(t2, t3);
        if (opt.trace) (resp->cached ? hit_ms : resp->warm_started ? warm_ms : miss_ms).push_back(ms);

        if (resp->policy_name != exp::to_string(p.req.policy) || !(resp->total_j > 0.0) ||
            (p.tag == Tag::kRepeat && !resp->cached)) {
          report.fail(1, "serve reply does not match its request");
          continue;
        }
        if (resp->warm_started && warm_seen++ % 16 == 0 && warm_checks.size() < kChecksPerClass) {
          warm_checks.emplace_back(p.req, *resp);
        }
        if (resp->cached && hit_seen++ % 16 == 0 && hit_checks.size() < kChecksPerClass) {
          hit_checks.emplace_back(p.req, *resp);
        }
        if (first_session) {
          digest = fnv1a64(serve::encode_response(*resp), digest);
          HitCount* block = p.tag == Tag::kFit ? &fit_hits
                            : p.tag == Tag::kThrash ? &thrash_hits : nullptr;
          if (block != nullptr) {
            block->eligible += 1;
            block->warm += resp->warm_started ? 1 : 0;
          }
        }
      } catch (const std::exception& e) {
        report.fail(1, std::string("serve request failed: ") + e.what());
      }
    }
    const double wall = seconds_between(e0, Clock::now());
    (traced ? traced_wall : untraced_wall) += wall;
    (traced ? traced_reqs : untraced_reqs) += static_cast<double>(sent);

    if (traced) {
      // One probe per block kind: the first (a) seed and the first (b) seed.
      for (const Tag tag : {Tag::kFit, Tag::kThrash}) {
        for (const Planned& p : episode) {
          if (p.tag != tag) continue;
          try {
            probe_snapshot(p.req, op);
          } catch (const std::exception& e) {
            report.fail(1, std::string("snapshot probe threw: ") + e.what());
          }
          break;
        }
      }
      probe_bytes_fixed = true;
    }
    if (++session.episodes == kEpisodesPerSession) {
      end_session();
      session = Session{};
      session.core.emplace();
    }
    speed.sample_if_due();
  }
  const double rss = peak_rss_mib();
  speed.sample();
  if (session.episodes > 0) end_session();

  // Sampled warm and cached replies must equal a fresh ServeCore's answer.
  for (const auto* checks : {&warm_checks, &hit_checks}) {
    for (const auto& [req, resp] : *checks) {
      try {
        serve::ServeCore fresh;
        const serve::Response want =
            serve::decode_response(fresh.handle_frame(serve::encode_request(req)));
        if (canonical(want) != canonical(resp)) {
          report.fail(1, "served reply differs from a fresh ServeCore's");
        }
      } catch (const std::exception& e) {
        report.fail(1, std::string("fresh-core check threw: ") + e.what());
      }
    }
  }

  if (!opt.trace) {
    report_end_to_end(report, untraced_reqs, untraced_wall, latency, setup_s, rss, speed);
    return;
  }

  report.set("serve.hit_us", median(hit_ms) * 1e3);
  report.set("serve.warm_ms", median(warm_ms));
  report.set("serve.miss_ms", median(miss_ms));
  report.set("serve.codec_us", codec_s / static_cast<double>(op) * 1e6);
  if (first_stats) {
    const serve::ServeStats& st = *first_stats;
    report.set("serve.result_hit_ratio",
               static_cast<double>(st.result_hits) / static_cast<double>(st.requests));
    const auto prefix_total = static_cast<double>(st.prefix_hits + st.prefix_misses);
    report.set("serve.prefix_hit_ratio",
               prefix_total > 0 ? static_cast<double>(st.prefix_hits) / prefix_total : 0.0);
    report.set("serve.evictions", static_cast<double>(st.snapshots_evicted));
  }
  report.set("serve.prefix_hit_ratio_4seeds", fit_hits.ratio());
  report.set("serve.prefix_hit_ratio_12seeds", thrash_hits.ratio());
  report.set("model.digest.serve", digest_value(digest));
  report.set("exp.prefix_ms", median(prefix_ms));
  report.set("snapshot.save_us", median(save_us));
  report.set("snapshot.restore_us", median(restore_us));
  report.set("snapshot.bytes", probe_count > 0 ? probe_bytes / probe_count : 0.0);
  report.set("trace.overhead_frac",
             (traced_wall / traced_reqs) / (untraced_wall / untraced_reqs) - 1.0);
  const double top = spans.top_level_s();
  for (const auto& [layer, self] : spans.layer_self_s()) {
    report.set("self_frac." + layer, self / top);
  }
  spans.write(opt.trace_dir, "serve-seed" + std::to_string(opt.seed), host_json(opt));
}

}  // namespace perfbench
