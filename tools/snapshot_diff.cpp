// snapshot_diff: compares two snapshot containers (exp::Run checkpoints,
// fleet shard .ckpt files, simty_run --trace files) and names the first
// divergent section/field. The determinism gate's teeth: "snapshots equal"
// proves two runs (or paused runs) are in the same state, and a divergence
// names the component (section) that forked first. When that section is a
// run trace (`tracer`), both sides are restored and the verdict names the
// first divergent event instead: index, virtual time, layer, kind, label
// and arg.
//
//   snapshot_diff a.snap b.snap
//     exit 0: snapshots identical
//     exit 1: snapshots diverge (first divergence printed)
//     exit 2: usage / unreadable or malformed input

#include <cstdio>
#include <exception>
#include <string>

#include "common/check.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/tracer.hpp"

namespace {

// Restores the container's tracer section into `t`; the payload must be
// consumed exactly.
void restore_tracer(const std::string& bytes, simty::trace::Tracer& t) {
  const simty::snapshot::Reader reader(bytes);
  for (std::size_t i = 0; i < reader.section_count(); ++i) {
    if (reader.section_name(i) != simty::trace::Tracer::kSection) continue;
    simty::snapshot::SectionReader s = reader.section_at(i);
    t.restore(s);
    SIMTY_CHECK_MSG(s.at_end(), "snapshot_diff: trailing bytes in tracer section");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: snapshot_diff <a.snap> <b.snap>\n");
    return 2;
  }
  try {
    const std::string a = simty::snapshot::read_file(argv[1]);
    const std::string b = simty::snapshot::read_file(argv[2]);
    const simty::snapshot::SnapshotDiff diff = simty::snapshot::diff_snapshots(
        simty::snapshot::decode_snapshot(a), simty::snapshot::decode_snapshot(b));
    std::string summary = diff.summary;
    if (diff.section == simty::trace::Tracer::kSection) {
      simty::trace::Tracer ta, tb;
      restore_tracer(a, ta);
      restore_tracer(b, tb);
      const simty::trace::TraceDiff events = simty::trace::diff_traces(ta, tb);
      if (!events.equal) summary = events.summary;
    }
    std::printf("%s\n", summary.c_str());
    return diff.equal ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "snapshot_diff: %s\n", e.what());
    return 2;
  }
}
