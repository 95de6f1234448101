#!/usr/bin/env bash
# Repo verification: release build, full test suite, and a small
# end-to-end figures run on every paper architecture (exercising the
# parallel evaluation engine at >1 worker).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== lint (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (rustdoc, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== tests (tier-1: root package) =="
cargo test -q

echo "== tests (full workspace) =="
cargo test --workspace -q

echo "== figures smoke run (small n, all arches, 4 workers) =="
./target/release/figures all --max-size 16384 --threads 4 --json /tmp/verify_figures.json
test -s /tmp/verify_figures.json

echo "== per-workload selection table (figures workloads, all arches) =="
# Every row of this table is a winner validated against the exact CPU
# oracle inside the sweep; the assertion pins that the scan and
# segmented-sum kinds actually appear for every architecture.
wl_table=$(./target/release/figures workloads --max-size 16384 --threads 4)
for arch in kepler maxwell pascal; do
  for wl in scan-f32 scan-u32 exscan-f32 segsum-f32 argmax-f32 hist64-f32; do
    echo "$wl_table" | grep -q "^ *${wl} *${arch} " || {
      echo "figures workloads table is missing the ${wl}/${arch} row:" >&2
      echo "$wl_table" >&2
      exit 1
    }
  done
done
echo "  all workload × arch rows present (scan/exscan/segsum included)"

echo "== sweep smoke run (determinism at two thread counts, timing budget) =="
raw1=$(./target/release/sweep --arch maxwell --n 65536 --threads 1)
one=$(echo "$raw1" | sed 's/wall_ms=[0-9.]*//; s/threads=[0-9]*//')
four=$(./target/release/sweep --arch maxwell --n 65536 --threads 4 | sed 's/wall_ms=[0-9.]*//; s/threads=[0-9]*//')
# Performance-regression backstop: the default (halving, compiled)
# sweep at this size runs well under a second on the reference 1-core
# container; 15 s is a generous ceiling that still catches an
# accidental return to exhaustive-reference costs or a compile-cache
# regression.
wall=$(echo "$raw1" | grep -o 'wall_ms=[0-9.]*' | cut -d= -f2)
budget_ms=15000
if ! awk -v w="$wall" -v b="$budget_ms" 'BEGIN { exit !(w + 0 < b) }'; then
  echo "SWEEP TIMING BUDGET EXCEEDED: ${wall} ms >= ${budget_ms} ms" >&2
  exit 1
fi
echo "  sweep wall clock: ${wall} ms (budget ${budget_ms} ms)"
if [ "$one" != "$four" ]; then
  echo "DETERMINISM MISMATCH between --threads 1 and --threads 4:" >&2
  echo "  $one" >&2
  echo "  $four" >&2
  exit 1
fi

echo "== bounded-rung smoke (exact-regime pruning, thread-count invariance, golden winner) =="
# At n=16K most jobs are exact-regime: the bounded rung must drop some
# of them, prune and count identically at 1 and 4 threads, and still
# pick the golden winner.
for t in 1 4; do
  ./target/release/sweep --arch kepler --n 16384 --threads "$t" \
    --metrics-json "/tmp/verify_bounded_$t.json" > "/tmp/verify_bounded_$t.txt"
done
python3 - <<'PY'
import json
def rungs(t):
    m = json.load(open(f"/tmp/verify_bounded_{t}.json"))
    return [(r["rung"], r["jobs"], r["measured"], r["pruned"]) for r in m["sweeps"][0]["rungs"]]
one, four = rungs(1), rungs(4)
assert one == four, f"rung counts differ between 1 and 4 threads: {one} vs {four}"
bounded = [r for r in one if r[0] == "bounded"]
assert bounded and bounded[0][3] > 0, f"the bounded rung pruned nothing: {one}"
print(f"  rungs (rung, jobs, measured, pruned): {one}")
PY
golden_tail=$(grep '^sweep arch=kepler n=16384 ' crates/bench/tests/golden/sweep_winners.txt | sed 's/.* winner=/winner=/')
for t in 1 4; do
  tail_t=$(grep '^sweep ' "/tmp/verify_bounded_$t.txt" | sed 's/.* winner=/winner=/')
  if [ "$tail_t" != "$golden_tail" ]; then
    echo "BOUNDED SWEEP WINNER DIFFERS FROM THE GOLDEN LINE at --threads $t:" >&2
    echo "  got:    $tail_t" >&2
    echo "  golden: $golden_tail" >&2
    exit 1
  fi
done
echo "  kepler n=16384 winner matches the golden line at 1 and 4 threads"

echo "== compiled-tier smoke (winner identity vs uop tier, all arches) =="
# The compiled tier must reproduce the µop tier's winner line byte for
# byte on every architecture — only the interp= token (and the wall
# clock) may differ.
for arch in kepler maxwell pascal; do
  cmp_line=$(./target/release/sweep --arch "$arch" --n 65536 --threads 1 \
    | sed 's/wall_ms=[0-9.]*//; s/interp=[a-z]*//')
  uop_line=$(./target/release/sweep --arch "$arch" --n 65536 --threads 1 --interp uop \
    | sed 's/wall_ms=[0-9.]*//; s/interp=[a-z]*//')
  if [ "$cmp_line" != "$uop_line" ]; then
    echo "COMPILED TIER DIVERGED FROM UOP TIER on $arch:" >&2
    echo "  compiled: $cmp_line" >&2
    echo "  uop:      $uop_line" >&2
    exit 1
  fi
  echo "  $arch: winner identical across tiers"
done

echo "== compiled-tier speedup (>=3x over uop on the steady-state n=4M sweep) =="
# Steady state = later repeats of one process (synthesis + jit caches
# warm after the first); we compare minima over the steady repeats.
# Container timing noise only inflates walls, so the paired run is
# retried up to three times: a healthy ~3.1-3.3x ratio clears 3.0 in
# some quiet window, a real regression never does.
steady_min() { # args: extra sweep flags; echoes min wall_ms of the last 3 of 4 repeats
  ./target/release/sweep --arch maxwell --n 4194304 --threads 1 --repeat 4 "$@" \
    | grep -o 'wall_ms=[0-9.]*' | cut -d= -f2 | tail -3 | sort -n | head -1
}
ok=""
for attempt in 1 2 3; do
  uop_ms=$(steady_min --interp uop)
  jit_ms=$(steady_min)
  echo "  attempt $attempt: uop ${uop_ms} ms, compiled ${jit_ms} ms"
  if awk -v u="$uop_ms" -v j="$jit_ms" 'BEGIN { exit !(u >= 3.0 * j) }'; then
    ok=yes
    break
  fi
done
if [ -z "$ok" ]; then
  echo "COMPILED TIER SPEEDUP BELOW 3x OVER THE UOP TIER" >&2
  exit 1
fi

echo "== profiled sweep smoke run (observational freedom, metrics/trace JSON) =="
# Profiling must not change anything the unprofiled run reports: the
# winner line is byte-identical (modulo wall clock), with the extra
# profile: line and JSON artifacts riding alongside.
profiled_raw=$(./target/release/sweep --arch maxwell --n 65536 --threads 1 \
  --profile --metrics-json /tmp/verify_metrics.json --trace-out /tmp/verify_trace.json)
profiled=$(echo "$profiled_raw" | grep '^sweep ' | sed 's/wall_ms=[0-9.]*//; s/threads=[0-9]*//')
if [ "$one" != "$profiled" ]; then
  echo "PROFILING CHANGED THE SWEEP OUTPUT:" >&2
  echo "  off: $one" >&2
  echo "  on:  $profiled" >&2
  exit 1
fi
echo "$profiled_raw" | grep -q '^profile: ' || { echo "profiled sweep printed no profile: line" >&2; exit 1; }
python3 - <<'PY'
import json
m = json.load(open("/tmp/verify_metrics.json"))
assert m["sweeps"], "metrics JSON has no sweeps"
assert m["sweeps"][0]["winner_profile"] is not None, "winner was not profiled"
labels = {s["label"] for s in m["spotlights"]}
assert {"fig1c-coop", "shuffle-coop"} <= labels, f"missing spotlights: {labels}"
tot = lambda p, k: sum(site.get(k, 0) for site in p["sites"])
for s in m["spotlights"]:
    p = s["profile"]
    assert p["exact"], f"spotlight {s['label']} must run unsampled"
    assert tot(p, "atomic_serial") > 0, f"{s['label']}: no atomic contention recorded"
    want = s["label"] == "shuffle-coop"
    assert (tot(p, "shuffle_exchanges") > 0) == want, f"{s['label']}: wrong shuffle counters"
t = json.load(open("/tmp/verify_trace.json"))
events = t["traceEvents"]
assert events, "trace has no events"
last = {}
for e in events:
    key = (e["pid"], e["tid"])
    assert e["ts"] >= last.get(key, e["ts"]), "trace ts not monotonic per lane"
    last[key] = e["ts"]
print(f"  metrics: {len(m['sweeps'])} sweep(s), {len(m['spotlights'])} spotlights; trace: {len(events)} events")
PY

echo "== sanitizer smoke run (clean corpus ⇒ exit 0, seeded races ⇒ exit 1) =="
# A sanitized sweep of the real corpus must find nothing, leave the
# winner line byte-identical, and exit 0.
sanitized_raw=$(./target/release/sweep --arch maxwell --n 65536 --threads 1 --sanitize)
sanitized=$(echo "$sanitized_raw" | grep '^sweep ' | sed 's/wall_ms=[0-9.]*//; s/threads=[0-9]*//')
if [ "$one" != "$sanitized" ]; then
  echo "SANITIZING CHANGED THE SWEEP OUTPUT:" >&2
  echo "  off: $one" >&2
  echo "  on:  $sanitized" >&2
  exit 1
fi
san_line=$(echo "$sanitized_raw" | grep '^sanitize: ') || { echo "sanitized sweep printed no sanitize: line" >&2; exit 1; }
echo "  $san_line"
echo "$san_line" | grep -q ' racy=0 ' || { echo "sanitizer flagged the clean corpus: $san_line" >&2; exit 1; }
# The seeded negative corpus must make the process exit nonzero and
# produce a well-formed report with every expected typed finding.
if ./target/release/sweep --arch maxwell --n 4096 --threads 1 \
    --seed-racy --sanitize-json /tmp/verify_races.json >/dev/null 2>&1; then
  echo "--seed-racy exited 0 despite the racy negative corpus" >&2; exit 1
fi
test -s /tmp/verify_races.json
python3 - <<'PY'
import json
r = json.load(open("/tmp/verify_races.json"))
assert r["screens"], "race JSON has no corpus screens"
for screen in r["screens"]:
    for c in screen["candidates"]:
        assert c["clean"], f"corpus candidate {c['version']} screened dirty"
seeded = {s["label"]: s for s in r["seeded"]}
assert len(seeded) == 8, f"expected 8 negative kernels, got {sorted(seeded)}"
for label, s in seeded.items():
    findings = s["report"]["findings"]
    assert any(
        f["kind"] == s["expect"] and f["access"]["pc"] == s["expect_pc"]
        for f in findings
    ), f"{label}: expected {s['expect']}@pc={s['expect_pc']} missing from {findings}"
print(f"  races JSON: {sum(len(x['candidates']) for x in r['screens'])} clean candidates, "
      f"{len(seeded)} seeded racy kernels all detected")
PY

echo "== tuning-store cache smoke (cold write, warm hit, corruption fallback) =="
# Two sweeps into a fresh store: the first is a cold miss that writes
# the record, the second a warm hit whose winner line is byte-identical
# (the cached winner is re-confirmed at full fidelity, so the cache can
# accelerate but never change a selection).
cache_dir=$(mktemp -d /tmp/verify_cache.XXXXXX)
cold_raw=$(./target/release/sweep --arch maxwell --n 65536 --threads 1 --cache-dir "$cache_dir")
cold=$(echo "$cold_raw" | grep '^sweep ' | sed 's/wall_ms=[0-9.]*//')
echo "$cold_raw" | grep '^cache: ' | grep -q 'outcome=miss' \
  || { echo "first cache run was not a miss: $cold_raw" >&2; exit 1; }
echo "$cold_raw" | grep '^cache: ' | grep -q 'saved=true' \
  || { echo "cold sweep did not write the record back" >&2; exit 1; }
warm_raw=$(./target/release/sweep --arch maxwell --n 65536 --threads 1 --cache-dir "$cache_dir")
warm=$(echo "$warm_raw" | grep '^sweep ' | sed 's/wall_ms=[0-9.]*//')
echo "$warm_raw" | grep '^cache: ' | grep -q 'outcome=warm' \
  || { echo "second cache run did not warm-start: $warm_raw" >&2; exit 1; }
if [ "$cold" != "$warm" ]; then
  echo "WARM-START CHANGED THE WINNER LINE:" >&2
  echo "  cold: $cold" >&2
  echo "  warm: $warm" >&2
  exit 1
fi
echo "  warm hit: $(echo "$warm_raw" | grep '^cache: ')"
# Corrupt the record in place: the sweep must quarantine it aside as
# .corrupt, fall back to a clean cold run with the same winner line,
# and still exit 0 — a bad cache must never break a sweep.
record="$cache_dir/maxwell-sum-f32-b17.json"
test -s "$record" || { echo "expected record $record missing" >&2; exit 1; }
python3 - "$record" <<'PY'
import sys
p = sys.argv[1]
data = bytearray(open(p, "rb").read())
data[len(data) // 2] ^= 0x40
open(p, "wb").write(data)
PY
corrupt_raw=$(./target/release/sweep --arch maxwell --n 65536 --threads 1 --cache-dir "$cache_dir") \
  || { echo "corrupted cache made the sweep exit nonzero" >&2; exit 1; }
corrupt=$(echo "$corrupt_raw" | grep '^sweep ' | sed 's/wall_ms=[0-9.]*//')
if [ "$cold" != "$corrupt" ]; then
  echo "CORRUPTED CACHE CHANGED THE WINNER LINE:" >&2
  echo "  cold:    $cold" >&2
  echo "  corrupt: $corrupt" >&2
  exit 1
fi
echo "$corrupt_raw" | grep '^cache: ' | grep -q 'outcome=invalid' \
  || { echo "corrupted record was not reported invalid: $corrupt_raw" >&2; exit 1; }
test -e "$record.corrupt" \
  || { echo "corrupted record was not quarantined to $record.corrupt" >&2; exit 1; }
echo "  corruption fallback: $(echo "$corrupt_raw" | grep '^cache: ' | cut -c1-100)..."
rm -rf "$cache_dir"

echo "== test-target inventory (every tests/*.rs file must be a registered target) =="
# A test file that exists on disk but is not picked up by cargo (e.g.
# accidentally shadowed or excluded) would silently stop running; make
# each one list its tests.
for f in tests/*.rs; do
  name=$(basename "$f" .rs)
  cargo test -q --test "$name" -- --list >/dev/null || {
    echo "tests/$name.rs is not a runnable test target" >&2; exit 1
  }
done
for f in crates/bench/tests/*.rs; do
  name=$(basename "$f" .rs)
  cargo test -q -p tangram-bench --test "$name" -- --list >/dev/null || {
    echo "crates/bench/tests/$name.rs is not a runnable test target" >&2; exit 1
  }
done

echo "== fault-injection smoke campaign (seed 7, 400 ppm) =="
# A seeded campaign must (a) still produce a winner, (b) report that
# every injected fault was detected-and-recovered or quarantined (no
# silent corruption), and (c) replay identically at any thread count.
campaign() {
  ./target/release/sweep --arch maxwell --n 65536 --threads "$1" \
    --fault-seed 7 --fault-rate 400 | sed 's/wall_ms=[0-9.]*//; s/threads=[0-9]*//'
}
c1=$(campaign 1)
c4=$(campaign 4)
if [ "$c1" != "$c4" ]; then
  echo "FAULT-CAMPAIGN DETERMINISM MISMATCH between --threads 1 and --threads 4:" >&2
  echo "  $c1" >&2
  echo "  $c4" >&2
  exit 1
fi
echo "$c1" | grep -q "winner=" || { echo "campaign produced no winner" >&2; exit 1; }
res=$(echo "$c1" | grep "^resilience:")
echo "  $res"
echo "$res" | grep -q " silent=0$" || { echo "campaign reported silent faults" >&2; exit 1; }
injected=$(echo "$res" | sed 's/.*faults=\([0-9]*\).*/\1/')
recovered=$(echo "$res" | sed 's/.*recovered=\([0-9]*\).*/\1/')
quarantined=$(echo "$res" | sed 's/.*quarantined=\([0-9]*\).*/\1/')
if [ "$injected" -eq 0 ]; then
  echo "campaign injected no faults (rate too low for smoke test)" >&2; exit 1
fi
if [ "$quarantined" -eq 0 ] && [ "$recovered" -ne "$injected" ]; then
  echo "faults neither recovered nor quarantined: $res" >&2; exit 1
fi
# The campaign winner must be bit-identical to the fault-free sweep.
clean_winner=$(echo "$one" | grep -o "winner=.*")
fault_winner=$(echo "$c1" | grep -o "winner=.*")
if [ "$clean_winner" != "$fault_winner" ]; then
  echo "fault campaign changed the winner:" >&2
  echo "  clean: $clean_winner" >&2
  echo "  fault: $fault_winner" >&2
  exit 1
fi

echo "== one engine for every key (profile + fault-campaign smoke on four workloads) =="
# Every workload key runs through the same sweep engine, so profiling
# and fault campaigns apply to all of them: each must print its
# profile:/resilience: line, inject faults without letting any through
# silently, replay identically at any thread count, and keep the plain
# sweep's winner tail byte for byte.
for workload in argmax hist64 scan segsum; do
  wsweep() {
    ./target/release/sweep --arch maxwell --n 4096 --workload "$workload" "$@" \
      | sed 's/wall_ms=[0-9.]*//; s/threads=[0-9]*//'
  }
  plain=$(wsweep --threads 1 | grep -o 'winner=.*')
  profiled=$(wsweep --threads 1 --profile)
  echo "$profiled" | grep -q '^profile: ' \
    || { echo "$workload: profiled sweep printed no profile: line" >&2; exit 1; }
  [ "$(echo "$profiled" | grep -o 'winner=.*')" = "$plain" ] \
    || { echo "$workload: profiling changed the winner: $profiled" >&2; exit 1; }
  f1=$(wsweep --threads 1 --fault-seed 7 --fault-rate 400)
  f4=$(wsweep --threads 4 --fault-seed 7 --fault-rate 400)
  [ "$f1" = "$f4" ] \
    || { echo "$workload: campaign differs between --threads 1 and 4:" >&2; echo "$f1" >&2; echo "$f4" >&2; exit 1; }
  wres=$(echo "$f1" | grep '^resilience:') \
    || { echo "$workload: campaign printed no resilience: line" >&2; exit 1; }
  echo "$wres" | grep -q ' silent=0$' \
    || { echo "$workload: campaign let a fault through: $wres" >&2; exit 1; }
  [ "$(echo "$wres" | sed 's/.*faults=\([0-9]*\).*/\1/')" -gt 0 ] \
    || { echo "$workload: campaign injected no faults: $wres" >&2; exit 1; }
  [ "$(echo "$f1" | grep -o 'winner=.*')" = "$plain" ] \
    || { echo "$workload: campaign changed the winner: $f1" >&2; exit 1; }
  echo "  $workload: profiled and campaign winners match the plain sweep; $wres"
done

echo "== tuning daemon smoke (cold → warm → dedup burst, identity vs sweep, clean shutdown) =="
serve_sock="/tmp/verify_tuned_$$.sock"
serve_cache=$(mktemp -d /tmp/verify_tuned_cache.XXXXXX)
rm -f "$serve_sock"
./target/release/tuned serve --socket "$serve_sock" --workers 2 --cache-dir "$serve_cache" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$serve_sock" ] && break; sleep 0.1; done
[ -S "$serve_sock" ] || { echo "daemon socket never appeared at $serve_sock" >&2; exit 1; }
# Cold then warm per architecture: the daemon's winner tail must be
# byte-identical to the batch sweep bin's, and the repeat must answer
# from the cache.
for arch in kepler maxwell pascal; do
  truth=$(./target/release/sweep --arch "$arch" --n 65536 --threads 1 | grep -o 'winner=.*')
  cold_q=$(./target/release/tuned query --socket "$serve_sock" --arch "$arch" --n 65536)
  echo "$cold_q" | grep -q 'served=cold' \
    || { echo "first daemon query on $arch was not cold: $cold_q" >&2; exit 1; }
  if [ "$(echo "$cold_q" | grep -o 'winner=.*')" != "$truth" ]; then
    echo "DAEMON COLD ANSWER DIVERGED FROM THE SWEEP BIN on $arch:" >&2
    echo "  daemon: $cold_q" >&2
    echo "  sweep:  $truth" >&2
    exit 1
  fi
  warm_q=$(./target/release/tuned query --socket "$serve_sock" --arch "$arch" --n 65536)
  echo "$warm_q" | grep -q 'served=warm' \
    || { echo "repeat daemon query on $arch was not warm: $warm_q" >&2; exit 1; }
  if [ "$(echo "$warm_q" | grep -o 'winner=.*')" != "$truth" ]; then
    echo "DAEMON WARM ANSWER DIVERGED FROM THE SWEEP BIN on $arch:" >&2
    echo "  daemon: $warm_q" >&2
    echo "  sweep:  $truth" >&2
    exit 1
  fi
  echo "  $arch: daemon cold and warm answers byte-identical to the sweep bin"
done
# Typed workloads: the daemon's argmax, histogram, scan, and
# segmented-sum winner tails must be byte-identical to the sweep
# bin's for the same workload key (the scan/segsum answers prove the
# vector-valued value model round-trips the serve wire).
for workload in argmax hist64 scan segsum; do
  truth=$(./target/release/sweep --arch maxwell --n 65536 --threads 1 --workload "$workload" \
    | grep '^sweep ' | grep -o 'winner=.*')
  wq=$(./target/release/tuned query --socket "$serve_sock" --arch maxwell --n 65536 --workload "$workload")
  echo "$wq" | grep -q " workload=${workload}-f32 " \
    || { echo "daemon answer carries no workload token: $wq" >&2; exit 1; }
  if [ "$(echo "$wq" | grep -o 'winner=.*')" != "$truth" ]; then
    echo "DAEMON $workload ANSWER DIVERGED FROM THE SWEEP BIN:" >&2
    echo "  daemon: $wq" >&2
    echo "  sweep:  $truth" >&2
    exit 1
  fi
  echo "  $workload: daemon answer byte-identical to the sweep bin"
done
# Duplicate burst at an uncached size: every concurrent client gets
# the same winner line and at least one answer is a dedup fan-out.
burst=$(./target/release/tuned query --socket "$serve_sock" --arch maxwell --n 1048576 --count 6 --concurrent)
[ "$(echo "$burst" | grep -c 'winner=')" -eq 6 ] \
  || { echo "dedup burst lost answers: $burst" >&2; exit 1; }
[ "$(echo "$burst" | grep -o 'winner=.*' | sort -u | wc -l)" -eq 1 ] \
  || { echo "dedup burst answers diverged: $burst" >&2; exit 1; }
echo "$burst" | grep -q 'served=dedup' \
  || { echo "no query in the burst was deduplicated: $burst" >&2; exit 1; }
./target/release/tuned stats --socket "$serve_sock" > /tmp/verify_serve_stats.json
python3 - <<'PY'
import json
s = json.load(open("/tmp/verify_serve_stats.json"))
assert s["dedup"] >= 1, f"daemon reports no dedup: {s}"
assert s["errors"] == 0 and s["busy"] == 0, f"smoke queries were shed or errored: {s}"
assert s["sweeps"] < s["ok"], f"dedup/warm saved no sweeps: {s}"
assert s["warm"] >= 3 and s["cold"] >= 3, f"unexpected serve mix: {s}"
print(f"  stats: ok={s['ok']} sweeps={s['sweeps']} cold={s['cold']} warm={s['warm']} "
      f"dedup={s['dedup']} p50={s['p50_ms']:.1f}ms p99={s['p99_ms']:.1f}ms")
PY
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
  echo "daemon did not exit cleanly on SIGTERM" >&2; exit 1
fi
[ ! -e "$serve_sock" ] || { echo "daemon left its socket behind at $serve_sock" >&2; exit 1; }
rm -rf "$serve_cache" /tmp/verify_serve_stats.json

echo "verify.sh: all checks passed"
