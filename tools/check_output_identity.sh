#!/usr/bin/env bash
# Checks that the working tree's simty_run writes the same bytes as
# BASE_REF's: the output-identity set a performance change must keep.
#
#   tools/check_output_identity.sh BASE_REF
#
# Builds simty_run (RelWithDebInfo) twice under a temporary directory
# (honours TMPDIR, removed on exit): once from `git archive BASE_REF`, once
# from a copy of the working tree (tracked and untracked, non-ignored files
# as they stand, so nothing is written into the checkout). Both binaries run
# the same commands in their own output directory, and these artifacts are
# `cmp`ed in this order:
#
#   heavy.out      stdout of --policy all --workload heavy --hours 24
#   fleet.out      stdout of --fleet 3000 --jobs 1 --fleet-csv fleet.csv
#   fleet.csv      ... and its CSV
#   drx.out        stdout of --drx-cycle 1280
#   drx-wur.out    stdout of --drx-cycle 1280 --wur --wur-budget 1280
#   doze.out       stdout of --doze
#   save.out       stdout of the heavy run with --snapshot-at 600
#                  --save-snapshot snap
#   snap.<POLICY>  the four snapshot files it writes
#   resume.out     stdout of the heavy run resumed with --restore-snapshot snap
#   trace.out      stdout of the heavy run with --trace trace.bin
#   trace.bin      ... and its trace file
#
# Exit status: 0 when every artifact is identical; 1 naming the first one
# that differs (or that only one side wrote, or whose command failed in the
# working tree); 2 on a usage, build or BASE_REF run error.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE_REF" >&2
  exit 2
fi
base_ref="$1"
root="$(git rev-parse --show-toplevel)"
if ! git -C "$root" rev-parse --verify --quiet "${base_ref}^{commit}" >/dev/null; then
  echo "error: '$base_ref' does not name a commit" >&2
  exit 2
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/simty-identity.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
jobs="$(nproc 2>/dev/null || echo 1)"
[ "$jobs" -gt 4 ] && jobs=4

# build SIDE: configures and builds $tmp/SIDE/src into $tmp/SIDE/build.
build() {
  local side="$1"
  echo "building simty_run ($side)..." >&2
  if ! { cmake -S "$tmp/$side/src" -B "$tmp/$side/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$tmp/$side/build" --target simty_run -j "$jobs"; } \
      >"$tmp/$side.build.log" 2>&1; then
    echo "error: building simty_run ($side) failed; last lines of the log:" >&2
    tail -20 "$tmp/$side.build.log" >&2
    exit 2
  fi
}

mkdir -p "$tmp/base/src" "$tmp/work/src"
git -C "$root" archive "$base_ref" | tar -x -C "$tmp/base/src"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
   tar --null --ignore-failed-read -cf - -T - 2>/dev/null) | tar -x -C "$tmp/work/src"
build base
build work

# run SIDE: runs every command with SIDE's binary in $tmp/SIDE/out; returns
# non-zero naming the first command that failed.
run() {
  local side="$1" bin="$tmp/$1/build/tools/simty_run" out="$tmp/$1/out"
  local heavy=(--policy all --workload heavy --hours 24)
  mkdir -p "$out"
  cd "$out"
  "$bin" "${heavy[@]}" >heavy.out || { echo heavy.out; return 1; }
  "$bin" --fleet 3000 --jobs 1 --fleet-csv fleet.csv >fleet.out || { echo fleet.out; return 1; }
  "$bin" --drx-cycle 1280 >drx.out || { echo drx.out; return 1; }
  "$bin" --drx-cycle 1280 --wur --wur-budget 1280 >drx-wur.out || { echo drx-wur.out; return 1; }
  "$bin" --doze >doze.out || { echo doze.out; return 1; }
  "$bin" "${heavy[@]}" --snapshot-at 600 --save-snapshot snap >save.out ||
    { echo save.out; return 1; }
  "$bin" "${heavy[@]}" --restore-snapshot snap >resume.out || { echo resume.out; return 1; }
  "$bin" "${heavy[@]}" --trace trace.bin >trace.out || { echo trace.out; return 1; }
}

echo "running $base_ref..." >&2
if ! failed="$(run base)"; then
  echo "error: $base_ref's simty_run failed writing $failed" >&2
  exit 2
fi
echo "running the working tree..." >&2
if ! failed="$(run work)"; then
  echo "DIFFERS: $failed (the working tree's command failed)"
  exit 1
fi

artifacts=(heavy.out fleet.out fleet.csv drx.out drx-wur.out doze.out save.out)
for f in "$tmp/base/out"/snap.*; do artifacts+=("$(basename "$f")"); done
artifacts+=(resume.out trace.out trace.bin)
for f in "$tmp/work/out"/snap.*; do
  [ -e "$tmp/base/out/$(basename "$f")" ] ||
    { echo "DIFFERS: $(basename "$f") (written only by the working tree)"; exit 1; }
done
for a in "${artifacts[@]}"; do
  if [ ! -e "$tmp/work/out/$a" ]; then
    echo "DIFFERS: $a (written only by $base_ref)"
    exit 1
  fi
  if ! cmp -s "$tmp/base/out/$a" "$tmp/work/out/$a"; then
    echo "DIFFERS: $a"
    (cd "$tmp" && cmp "base/out/$a" "work/out/$a") || true
    exit 1
  fi
done
echo "identical: ${#artifacts[@]} artifacts match $base_ref"
