#!/bin/sh
# Tier-1 verification: full build + test suite, as required by ROADMAP.md.
# Usage: bench/check.sh  (from the repository root)
set -eu

cd "$(dirname "$0")/.."

# Every intermediate file lives in one private work dir, so two runs at
# once (say, two checkouts side by side) never read each other's output.
W=$(mktemp -d)
trap 'rm -rf "$W"' EXIT

# same A B MSG: fail with MSG and the diff unless A and B are identical.
same() {
  if ! cmp -s "$1" "$2"; then
    echo "FAIL: $3" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  fi
}

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== smoke: campaign determinism across job counts =="
CLI=_build/default/bin/metamut_cli.exe
[ -x "$CLI" ] || { echo "FAIL: $CLI not built" >&2; exit 1; }
"$CLI" campaign --iterations 10 --jobs 1 > "$W/campaign_j1.txt"
"$CLI" campaign --iterations 10 --jobs 4 > "$W/campaign_j4.txt"
same "$W/campaign_j1.txt" "$W/campaign_j4.txt" \
  "campaign output differs between --jobs 1 and --jobs 4"
echo "campaign output identical for --jobs 1 and --jobs 4"

echo "== smoke: faulted campaign determinism across job counts =="
FAULTS="hang=0.05,crash=0.2"
"$CLI" campaign --iterations 10 --jobs 1 --faults "$FAULTS" --fault-seed 3 \
  > "$W/campaign_f1.txt"
"$CLI" campaign --iterations 10 --jobs 4 --faults "$FAULTS" --fault-seed 3 \
  > "$W/campaign_f4.txt"
same "$W/campaign_f1.txt" "$W/campaign_f4.txt" \
  "faulted campaign output differs between job counts"
echo "faulted campaign output identical for --jobs 1 and --jobs 4"

echo "== smoke: campaign checkpoint/resume round-trip =="
CKPT=$(mktemp -d "$W/dir.XXXXXX")
"$CLI" campaign --iterations 10 --jobs 2 --checkpoint "$CKPT" \
  > "$W/campaign_ckpt.txt" 2> /dev/null
# journals carry coverage maps at rest (sorted pairs): a dense 1 MiB
# map on disk would blow this bound
for J in "$CKPT"/journal-*.ckpt; do
  SIZE=$(wc -c < "$J")
  if [ "$SIZE" -gt 65536 ]; then
    echo "FAIL: $(basename "$J") is $SIZE bytes (over 64 KiB)" >&2
    exit 1
  fi
done
# lose one completed cell, as a mid-run kill would
rm "$CKPT/journal-uCFuzz.s-GCC.ckpt"
"$CLI" campaign --iterations 10 --jobs 2 --checkpoint "$CKPT" --resume \
  > "$W/campaign_resume.txt" 2> /dev/null
same "$W/campaign_ckpt.txt" "$W/campaign_resume.txt" \
  "resumed campaign output differs from the original"
echo "resumed campaign output identical to the uninterrupted run"

echo "== smoke: telemetry artifacts =="
TEL=$(mktemp -d "$W/dir.XXXXXX")
# Telemetry must be a pure observer: the fuzz result printed on
# stdout has to be byte-identical with and without --telemetry.
"$CLI" fuzz -n 40 --seed 7 > "$W/fuzz_plain.txt" 2> /dev/null
"$CLI" fuzz -n 40 --seed 7 --telemetry "$TEL" \
  > "$W/fuzz_tel.txt" 2> /dev/null
same "$W/fuzz_plain.txt" "$W/fuzz_tel.txt" \
  "--telemetry changed the fuzz output"
for f in trace.jsonl metrics.prom metrics.json campaign-report.md; do
  if [ ! -s "$TEL/$f" ]; then
    echo "FAIL: telemetry artifact $f missing or empty" >&2
    exit 1
  fi
done
# Chrome trace and JSON snapshot must each be one valid JSON document.
if command -v jq > /dev/null 2>&1; then
  jq -e . "$TEL/trace.jsonl" > /dev/null || {
    echo "FAIL: trace.jsonl is not valid JSON" >&2
    exit 1
  }
  jq -e '.counters and .gauges and .histograms' "$TEL/metrics.json" \
    > /dev/null || {
    echo "FAIL: metrics.json missing counters/gauges/histograms" >&2
    exit 1
  }
else
  echo "jq not found; skipping JSON validation"
fi
# Prometheus text exposition: TYPE comments and sane sample lines.
grep -q '^# TYPE metamut_compile_total counter' "$TEL/metrics.prom" || {
  echo "FAIL: metrics.prom missing compile counter TYPE line" >&2
  exit 1
}
grep -q '^metamut_.*_bucket{le="+Inf"} ' "$TEL/metrics.prom" || {
  echo "FAIL: metrics.prom missing histogram +Inf bucket" >&2
  exit 1
}
grep -q '"name":"compile.' "$TEL/trace.jsonl" || {
  echo "FAIL: trace.jsonl has no compile spans" >&2
  exit 1
}
grep -q '^## ' "$TEL/campaign-report.md" || {
  echo "FAIL: campaign-report.md has no sections" >&2
  exit 1
}
echo "telemetry artifacts well-formed; fuzz output unchanged"

echo "== smoke: campaign determinism with telemetry enabled =="
TEL1=$(mktemp -d "$W/dir.XXXXXX")
TEL4=$(mktemp -d "$W/dir.XXXXXX")
"$CLI" campaign --iterations 10 --jobs 1 --telemetry "$TEL1" \
  > "$W/campaign_t1.txt" 2> /dev/null
"$CLI" campaign --iterations 10 --jobs 4 --telemetry "$TEL4" \
  > "$W/campaign_t4.txt" 2> /dev/null
same "$W/campaign_t1.txt" "$W/campaign_t4.txt" \
  "telemetry perturbed campaign output across job counts"
same "$W/campaign_j1.txt" "$W/campaign_t1.txt" \
  "telemetry perturbed campaign output across job counts"
echo "campaign output identical with telemetry at --jobs 1 and 4"

echo "== smoke: faulted resume with telemetry stays byte-identical =="
CKPT=$(mktemp -d "$W/dir.XXXXXX")
TELA=$(mktemp -d "$W/dir.XXXXXX")
TELB=$(mktemp -d "$W/dir.XXXXXX")
FAULTS="hang=0.05,crash=0.2"
"$CLI" campaign --iterations 10 --jobs 2 --faults "$FAULTS" \
  --fault-seed 3 --checkpoint "$CKPT" --telemetry "$TELA" \
  > "$W/campaign_ftel.txt" 2> /dev/null
rm "$CKPT/journal-uCFuzz.s-GCC.ckpt"
"$CLI" campaign --iterations 10 --jobs 2 --faults "$FAULTS" \
  --fault-seed 3 --checkpoint "$CKPT" --resume --telemetry "$TELB" \
  > "$W/campaign_ftel_resume.txt" 2> /dev/null
same "$W/campaign_ftel.txt" "$W/campaign_ftel_resume.txt" \
  "telemetry+faults+resume changed the campaign output"
echo "faulted resumed campaign with telemetry identical to uninterrupted"

echo "== smoke: culprit-pass bisection =="
# A canned wrong-code finding (the seeded reassociation miscompile):
# bisection must name constfold, deterministically.
WC="$W/wrongcode.c"
cat > "$WC" <<'EOF'
int r[6];
int total;
int main(void) {
  int a = (int)(char)100;
  for (int i = 0; i < 3; i++) total += i;
  for (int j = 0; j < 3; j++) total += j;
  r[1] += r[0];
  r[2] += r[1];
  r[3] += r[2];
  total = a - 7;
  return total & 255;
}
EOF
"$CLI" bisect "$WC" -c gcc -O 2 > "$W/bisect_1.txt"
grep -q '^culprit passes:  constfold$' "$W/bisect_1.txt" || {
  echo "FAIL: bisect did not name constfold as the culprit" >&2
  cat "$W/bisect_1.txt" >&2
  exit 1
}
grep -q '^first divergent: constfold$' "$W/bisect_1.txt" || {
  echo "FAIL: per-pass differential did not flag constfold" >&2
  cat "$W/bisect_1.txt" >&2
  exit 1
}
"$CLI" bisect "$WC" -c gcc -O 2 > "$W/bisect_2.txt"
same "$W/bisect_1.txt" "$W/bisect_2.txt" "bisect verdict not deterministic"
echo "bisect verdict deterministic: constfold"
# the per-pass trace behind the differential, end to end through the CLI
"$CLI" compile "$WC" -O 2 --dump-ir=constfold > "$W/dump_ir.txt"
if grep -q '^;; IR before constfold' "$W/dump_ir.txt" \
   && grep -q '^;; IR after constfold' "$W/dump_ir.txt"; then
  echo "dump-ir traces constfold"
else
  echo "FAIL: --dump-ir=constfold did not print IR around constfold" >&2
  cat "$W/dump_ir.txt" >&2
  exit 1
fi

echo "== smoke: campaign --bisect determinism across job counts =="
"$CLI" campaign --iterations 10 --jobs 1 --bisect > "$W/campaign_b1.txt"
"$CLI" campaign --iterations 10 --jobs 4 --bisect > "$W/campaign_b4.txt"
same "$W/campaign_b1.txt" "$W/campaign_b4.txt" \
  "campaign --bisect output differs between job counts"
echo "campaign --bisect output identical for --jobs 1 and --jobs 4"

echo "== smoke: scheduled fuzzing determinism across job counts =="
# The corpus scheduler (favored-entry picks + pool trimming) must be
# deterministic at any job count, like the default path.
"$CLI" campaign --iterations 10 --jobs 1 --schedule > "$W/campaign_s1.txt"
"$CLI" campaign --iterations 10 --jobs 4 --schedule > "$W/campaign_s4.txt"
same "$W/campaign_s1.txt" "$W/campaign_s4.txt" \
  "scheduled campaign output differs between job counts"
echo "scheduled campaign output identical for --jobs 1 and --jobs 4"

echo "== smoke: sharded campaign determinism across shard counts =="
# The fork/socket coordinator must reproduce the sequential campaign
# byte-for-byte: shards:1 (inline) and shards:2 (two forked workers)
# both have to match the plain --jobs 1 run captured above.
"$CLI" campaign --iterations 10 --shards 1 > "$W/campaign_sh1.txt" 2> /dev/null
"$CLI" campaign --iterations 10 --shards 2 > "$W/campaign_sh2.txt" 2> /dev/null
same "$W/campaign_sh1.txt" "$W/campaign_sh2.txt" \
  "sharded campaign output differs across shard counts"
same "$W/campaign_j1.txt" "$W/campaign_sh1.txt" \
  "sharded campaign output differs across shard counts"
echo "sharded campaign output identical for --shards 1, --shards 2, and plain"

echo "== smoke: sharded worker-kill recovery =="
# Kill the worker holding one lease mid-campaign (test hook fires on the
# first attempt only): the coordinator must requeue the lease, respawn,
# and still produce byte-identical stdout; the intervention is reported
# on stderr only.
METAMUT_SHARD_KILL="uCFuzz.s-GCC" \
  "$CLI" campaign --iterations 10 --shards 2 \
  > "$W/campaign_kill.txt" 2> "$W/campaign_kill.err"
same "$W/campaign_sh2.txt" "$W/campaign_kill.txt" \
  "worker-kill recovery changed the campaign output"
echo "campaign output identical after a mid-lease worker kill"
grep -q 'shard recovery: 1 worker death' "$W/campaign_kill.err" || {
  echo "FAIL: worker kill was not reported on stderr" >&2
  cat "$W/campaign_kill.err" >&2
  exit 1
}

echo "== smoke: opt-matrix determinism across shard counts =="
# The -O axis multiplies the unit list; the shards:1 = shards:K
# byte-identity contract must hold there too.
"$CLI" campaign --iterations 10 --shards 1 --opt-matrix 0,2 \
  > "$W/campaign_om1.txt" 2> /dev/null
"$CLI" campaign --iterations 10 --shards 2 --opt-matrix 0,2 \
  > "$W/campaign_om2.txt" 2> /dev/null
same "$W/campaign_om1.txt" "$W/campaign_om2.txt" \
  "opt-matrix campaign output differs between shard counts"
echo "opt-matrix campaign output identical for --shards 1 and --shards 2"

echo "== smoke: chaos-armed sharded campaign =="
# Every shard-layer fault site armed at once: injected frame garbles,
# mid-frame stalls, worker OOM kills and coordinator crash-restarts must
# all be recovered (or quarantined) without touching stdout, which stays
# byte-identical to the clean sharded run at every shard count.
CHAOS="frame=0.2,stall=0.1,oom=0.2,coord=0.3"
"$CLI" campaign --iterations 10 --shards 1 --faults "$CHAOS" \
  --fault-seed 17 --hang-timeout 2 \
  > "$W/campaign_ch1.txt" 2> /dev/null
"$CLI" campaign --iterations 10 --shards 2 --faults "$CHAOS" \
  --fault-seed 17 --hang-timeout 2 \
  > "$W/campaign_ch2.txt" 2> "$W/campaign_ch2.err"
same "$W/campaign_ch1.txt" "$W/campaign_ch2.txt" \
  "shard-layer chaos changed the campaign output"
same "$W/campaign_sh2.txt" "$W/campaign_ch2.txt" \
  "shard-layer chaos changed the campaign output"
echo "chaos-armed campaign output identical across shard counts and to clean"
grep -q 'shard recovery:' "$W/campaign_ch2.err" || {
  echo "FAIL: armed chaos never fired (no recovery line on stderr)" >&2
  cat "$W/campaign_ch2.err" >&2
  exit 1
}

echo "== smoke: coordinator SIGKILL + --resume byte-identity =="
# Kill the coordinator process mid-campaign; per-lease result journaling
# must let --resume reproduce the uninterrupted run's stdout exactly.
# Its workers must not outlive it: each one reads EOF on its socket (or
# EPIPE on its next send) and exits.
CKPT=$(mktemp -d "$W/dir.XXXXXX")
"$CLI" campaign --iterations 10 --shards 2 --opt-matrix 0,2 \
  --checkpoint "$CKPT" > "$W/campaign_crash.txt" 2> /dev/null &
COORD_PID=$!
sleep 1
WORKERS=$(pgrep -P "$COORD_PID" -f 'metamut_cli.exe worker' || true)
kill -9 "$COORD_PID" 2> /dev/null || true
wait "$COORD_PID" 2> /dev/null || true
if [ -z "$WORKERS" ]; then
  echo "FAIL: the coordinator had no worker processes to check" >&2
  exit 1
fi
sleep 5
for PID in $WORKERS; do
  if kill -0 "$PID" 2> /dev/null; then
    echo "FAIL: worker $PID outlived its SIGKILLed coordinator by 5 s" >&2
    ps -o pid=,ppid=,args= -p "$PID" >&2 || true
    kill -9 $WORKERS 2> /dev/null || true
    exit 1
  fi
done
echo "no worker outlived the SIGKILLed coordinator"
"$CLI" campaign --iterations 10 --shards 2 --opt-matrix 0,2 \
  --checkpoint "$CKPT" --resume \
  > "$W/campaign_crash_resume.txt" 2> /dev/null
same "$W/campaign_om2.txt" "$W/campaign_crash_resume.txt" \
  "coordinator SIGKILL + resume changed the campaign output"
echo "resumed campaign after coordinator SIGKILL identical to uninterrupted"

echo "== smoke: structured log determinism =="
# The --log body carries no wall clock and renders grouped by scope, so
# it must be byte-identical across job counts, across shard counts, and
# under worker-process chaos (in-worker and shard-level fault records are
# pure functions of the per-lease fault stream).
# in-process faults + checkpointing at :debug so the --jobs log has
# real records (fault.injected, retry.backoff, checkpoint.saved) to
# compare, not two empty files
CKL1=$(mktemp -d "$W/dir.XXXXXX")
CKL4=$(mktemp -d "$W/dir.XXXXXX")
"$CLI" campaign --iterations 10 --jobs 1 --faults "hang=0.05,crash=0.2" \
  --fault-seed 3 --checkpoint "$CKL1" \
  --log "$W/campaign_lg_j1.jsonl:debug" > /dev/null 2> /dev/null
"$CLI" campaign --iterations 10 --jobs 4 --faults "hang=0.05,crash=0.2" \
  --fault-seed 3 --checkpoint "$CKL4" \
  --log "$W/campaign_lg_j4.jsonl:debug" > /dev/null 2> /dev/null
same "$W/campaign_lg_j1.jsonl" "$W/campaign_lg_j4.jsonl" \
  "--log body differs between job counts"
echo "log body identical for --jobs 1 and --jobs 4"
grep -q '"event":"fault.injected"' "$W/campaign_lg_j1.jsonl" || {
  echo "FAIL: faulted --jobs log has no fault.injected records" >&2
  exit 1
}
"$CLI" campaign --iterations 10 --shards 1 --log "$W/campaign_lg_sh1.jsonl" \
  > /dev/null 2> /dev/null
"$CLI" campaign --iterations 10 --shards 2 --log "$W/campaign_lg_sh2.jsonl" \
  > /dev/null 2> /dev/null
same "$W/campaign_lg_sh1.jsonl" "$W/campaign_lg_sh2.jsonl" \
  "--log body differs between shard counts"
echo "log body identical for --shards 1 and --shards 2"
# --jobs and --shards are backends of one driver: the same clean run
# logs the same body on worker domains as on worker processes
"$CLI" campaign --iterations 10 --jobs 1 --log "$W/campaign_lg_cj1.jsonl" \
  > /dev/null 2> /dev/null
"$CLI" campaign --iterations 10 --jobs 4 --log "$W/campaign_lg_cj4.jsonl" \
  > /dev/null 2> /dev/null
same "$W/campaign_lg_cj1.jsonl" "$W/campaign_lg_cj4.jsonl" \
  "--log body differs between --jobs and --shards"
same "$W/campaign_lg_cj1.jsonl" "$W/campaign_lg_sh2.jsonl" \
  "--log body differs between --jobs and --shards"
echo "log body identical for --jobs 1, --jobs 4 and --shards 2"
# chaos: worker-OOM kills produce lease.infra / lease.retry /
# lease.verdict records keyed to the (lease, attempt) fault stream
"$CLI" campaign --iterations 10 --shards 1 --faults oom=0.5 --fault-seed 5 \
  --log "$W/campaign_lg_ch1.jsonl" > /dev/null 2> /dev/null
"$CLI" campaign --iterations 10 --shards 2 --faults oom=0.5 --fault-seed 5 \
  --log "$W/campaign_lg_ch2.jsonl" > /dev/null 2> /dev/null
same "$W/campaign_lg_ch1.jsonl" "$W/campaign_lg_ch2.jsonl" \
  "chaos --log body differs between shard counts"
echo "chaos log body identical for --shards 1 and --shards 2"
grep -q '"event":"lease.verdict"' "$W/campaign_lg_ch2.jsonl" || {
  echo "FAIL: chaos log has no lease.verdict records" >&2
  exit 1
}

echo "== smoke: profiling export (profile.folded, mutator yield) =="
TEL=$(mktemp -d "$W/dir.XXXXXX")
"$CLI" fuzz -n 40 --seed 7 --telemetry "$TEL" > /dev/null 2> /dev/null
for f in profile.folded mutator-yield.json; do
  if [ ! -s "$TEL/$f" ]; then
    echo "FAIL: telemetry artifact $f missing or empty" >&2
    exit 1
  fi
done
# every folded line is "stack;frames NNN" — the exact grammar
# flamegraph.pl and speedscope consume
if grep -qvE '^[^ ]+ [0-9]+$' "$TEL/profile.folded"; then
  echo "FAIL: profile.folded has malformed folded-stack lines" >&2
  head "$TEL/profile.folded" >&2
  exit 1
fi
grep -q 'compile' "$TEL/profile.folded" || {
  echo "FAIL: profile.folded has no compile stacks" >&2
  exit 1
}
if command -v flamegraph.pl > /dev/null 2>&1; then
  flamegraph.pl "$TEL/profile.folded" > "$W/flame.svg" || {
    echo "FAIL: flamegraph.pl rejected profile.folded" >&2
    exit 1
  }
fi
if command -v jq > /dev/null 2>&1; then
  jq -e '.[0].mutator and (.[0].fresh_edges >= 0)' "$TEL/mutator-yield.json" \
    > /dev/null || {
    echo "FAIL: mutator-yield.json malformed" >&2
    exit 1
  }
fi
grep -q '## Where the time goes' "$TEL/campaign-report.md" || {
  echo "FAIL: report is missing the self-time table" >&2
  exit 1
}
echo "profile.folded and mutator-yield.json well-formed"

echo "== smoke: live observability endpoints (--serve) =="
# Scrape the campaign during its post-run linger window: /status.json
# must report done, /healthz must be 200, and /metrics must match the
# final metrics.prom modulo the wall-clock families (span./gc./
# telemetry.).  Serving must not perturb stdout.
if command -v curl > /dev/null 2>&1; then
  TEL=$(mktemp -d "$W/dir.XXXXXX")
  : > "$W/campaign_serve.err"
  METAMUT_SERVE_LINGER=10 "$CLI" campaign --iterations 10 --jobs 1 \
    --serve 127.0.0.1:0 --telemetry "$TEL" \
    > "$W/campaign_serve.txt" 2> "$W/campaign_serve.err" &
  SRV_PID=$!
  ADDR=""
  i=0
  while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^serving on //p' "$W/campaign_serve.err" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
  done
  if [ -z "$ADDR" ]; then
    echo "FAIL: --serve never reported its bound address" >&2
    exit 1
  fi
  DONE=""
  i=0
  while [ $i -lt 150 ]; do
    if curl -fsS "http://$ADDR/status.json" 2> /dev/null \
        | grep -q '"done": true'; then
      DONE=yes
      break
    fi
    sleep 0.1
    i=$((i + 1))
  done
  if [ -z "$DONE" ]; then
    echo "FAIL: /status.json never reported done" >&2
    kill "$SRV_PID" 2> /dev/null || true
    exit 1
  fi
  HB=$(curl -fsS "http://$ADDR/healthz")
  [ "$HB" = "ok" ] || {
    echo "FAIL: /healthz was not ok on a clean run" >&2
    exit 1
  }
  curl -fsS "http://$ADDR/metrics" > "$W/serve_metrics.prom" || {
    echo "FAIL: /metrics scrape failed" >&2
    exit 1
  }
  grep -q '^# TYPE metamut_compile_total counter' "$W/serve_metrics.prom" || {
    echo "FAIL: live /metrics is not Prometheus text exposition" >&2
    exit 1
  }
  wait "$SRV_PID"
  grep -Ev 'metamut_(span|gc|telemetry)_' "$W/serve_metrics.prom" \
    > "$W/serve_metrics_f.prom"
  grep -Ev 'metamut_(span|gc|telemetry)_' "$TEL/metrics.prom" \
    > "$W/final_metrics_f.prom"
  same "$W/serve_metrics_f.prom" "$W/final_metrics_f.prom" \
    "live /metrics diverged from the final metrics.prom"
  echo "live /metrics matches metrics.prom modulo wall-clock families"
  same "$W/campaign_j1.txt" "$W/campaign_serve.txt" \
    "--serve changed the campaign output"
  echo "serving did not perturb campaign stdout"
else
  echo "SKIP: serve smoke (curl not found)"
fi

echo "== smoke: quarantine flight recorder + degraded /healthz =="
# Guaranteed-lethal faults: every lease OOMs until its breaker trips,
# so every unit must leave a flight-<unit>.json in the telemetry dir,
# and a live /healthz must serve 503 once the first breaker trips.
TELF=$(mktemp -d "$W/dir.XXXXXX")
: > "$W/campaign_flight.err"
if command -v curl > /dev/null 2>&1; then
  METAMUT_SERVE_LINGER=10 "$CLI" campaign --iterations 10 --shards 2 \
    --faults oom=1.0 --fault-seed 9 --telemetry "$TELF" \
    --serve 127.0.0.1:0 \
    > "$W/campaign_flight.txt" 2> "$W/campaign_flight.err" &
  FL_PID=$!
  ADDR=""
  i=0
  while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^serving on //p' "$W/campaign_flight.err" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
    i=$((i + 1))
  done
  DONE=""
  i=0
  while [ $i -lt 300 ]; do
    if curl -fsS "http://$ADDR/status.json" 2> /dev/null \
        | grep -q '"done": true'; then
      DONE=yes
      break
    fi
    sleep 0.1
    i=$((i + 1))
  done
  if [ -z "$DONE" ]; then
    echo "FAIL: flight-smoke /status.json never reported done" >&2
    kill "$FL_PID" 2> /dev/null || true
    exit 1
  fi
  CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")
  [ "$CODE" = "503" ] || {
    echo "FAIL: /healthz served $CODE after breaker trips (want 503)" >&2
    exit 1
  }
  echo "/healthz degraded to 503 after breaker trips"
  wait "$FL_PID"
else
  "$CLI" campaign --iterations 10 --shards 2 --faults oom=1.0 \
    --fault-seed 9 --telemetry "$TELF" \
    > "$W/campaign_flight.txt" 2> "$W/campaign_flight.err"
fi
if ! ls "$TELF"/flight-*.json > /dev/null 2>&1; then
  echo "FAIL: quarantined leases left no flight-<unit>.json" >&2
  ls "$TELF" >&2 || true
  exit 1
fi
FLIGHT=$(ls "$TELF"/flight-*.json | head -n 1)
grep -q '"reason"' "$FLIGHT" && grep -q '"events"' "$FLIGHT" || {
  echo "FAIL: flight record missing reason/events" >&2
  cat "$FLIGHT" >&2
  exit 1
}
if command -v jq > /dev/null 2>&1; then
  jq -e '.unit and .reason and (.events | type == "array")' "$FLIGHT" \
    > /dev/null || {
    echo "FAIL: flight record is not valid JSON" >&2
    exit 1
  }
fi
grep -q 'QUARANTINED' "$W/campaign_flight.err" || {
  echo "FAIL: quarantine was not reported on stderr" >&2
  exit 1
}
echo "flight recorder dumped for quarantined leases"

echo "== smoke: examples run, bughunt is deterministic =="
EX=_build/default/examples
[ -x "$EX/bughunt.exe" ] || { echo "FAIL: $EX not built" >&2; exit 1; }
for E in quickstart invent_mutators differential bughunt; do
  "$EX/$E.exe" > "$W/example_$E.txt" 2> /dev/null || {
    echo "FAIL: examples/$E.exe exited nonzero" >&2
    exit 1
  }
done
# bughunt is the macro fuzzer's end-to-end caller: a second run must
# print the same hunt
"$EX/bughunt.exe" > "$W/example_bughunt2.txt" 2> /dev/null || {
  echo "FAIL: examples/bughunt.exe exited nonzero on the second run" >&2
  exit 1
}
same "$W/example_bughunt.txt" "$W/example_bughunt2.txt" \
  "bughunt output differs between two runs"
echo "examples ran; bughunt output identical across two runs"

echo "OK"
