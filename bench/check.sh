#!/bin/sh
# CI's check, a superset of tier 1 (`dune build && dune runtest`): the
# build and the suite, then the CLI's determinism contracts as one table
# of rows over one table of runs, then the examples.
# Usage: sh bench/check.sh  (from anywhere in the repository)
set -eu

cd "$(dirname "$0")/.."

# Every file lives in one private work dir, so two runs at once (say,
# two checkouts side by side) never read each other's output.
# BG is the run in flight, if any.
W=$(mktemp -d)
BG=""
trap 'kill -9 $BG 2> /dev/null || true; rm -rf "$W"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

CLI=_build/default/bin/metamut_cli.exe
EX=_build/default/examples
[ -x "$CLI" ] || fail "$CLI not built"
[ -x "$EX/bughunt.exe" ] || fail "$EX not built"

# The culprit-pass bisection input: the seeded reassociation miscompile,
# which bisection must pin on constfold.
cat > "$W/wrongcode.c" <<'EOF'
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

# ------------------------------------------------------------------ runs
# One invocation per line: a name, then the CLI's arguments (or
# `example NAME` for examples/NAME.exe).  A leading VAR=value word goes
# to the run's environment.  Each run is made at most once, when the
# first row that reads it comes up, and must exit 0.  It leaves out
# (stdout) and err (stderr) in $W/<name>/, and the placeholders add:
#   @tel         --telemetry <name>/tel
#   @log[:LVL]   --log <name>/log.jsonl[:LVL]
#   @ckpt        --checkpoint <name>/ckpt, where every journal must stay
#                within 64 KiB (coverage maps rest as sorted pairs; one
#                dense 1 MiB map would blow it)
#   @lose=RUN    --resume from RUN's checkpoint once the uCFuzz.s-GCC
#                journal is gone, as a mid-run kill would lose it
#   @resume=RUN  --resume from RUN's checkpoint as RUN left it
#   @serve=S     --serve on a free port: once /status.json reports done
#                (within S s), <name>/healthz keeps "<status> <body>"
#                and <name>/scrape.prom the live /metrics
#   @kill        SIGKILL the coordinator mid-run; none of its workers
#                may outlive it by 5 s
#   @wc          the bisection input above
FAULTS='--faults hang=0.05 --fault-seed 3'
CHAOS='--faults frame=0.2,stall=0.1,oom=0.2,coord=0.3 --fault-seed 17 --hang-timeout 2'
RUNS="
c.j1       campaign -n 10 --jobs 1
c.obs      campaign -n 10 --jobs 1 @serve=15 @tel @log
c.j4       campaign -n 10 --jobs 4 @tel @log
c.sh1      campaign -n 10 --shards 1 @tel @log
c.sh2      campaign -n 10 --shards 2 @tel @log
c.ckpt     campaign -n 10 --jobs 2 @ckpt
c.lose     campaign -n 10 --jobs 2 @lose=c.ckpt
c.kill     METAMUT_SHARD_KILL=uCFuzz.s-GCC campaign -n 10 --shards 2
f.j1       campaign -n 10 --jobs 1 $FAULTS @ckpt @log:debug
f.j4       campaign -n 10 --jobs 4 $FAULTS @ckpt @log:debug
f.lose     campaign -n 10 --jobs 2 $FAULTS @lose=f.j4 @tel
b.j1       campaign -n 10 --jobs 1 --bisect
b.j4       campaign -n 10 --jobs 4 --bisect
s.j1       campaign -n 10 --jobs 1 --schedule
s.j4       campaign -n 10 --jobs 4 --schedule
om.sh1     campaign -n 10 --shards 1 --opt-matrix 0,2
om.sh2     campaign -n 10 --shards 2 --opt-matrix 0,2
om.kill    campaign -n 10 --shards 2 --opt-matrix 0,2 @ckpt @kill
om.resume  campaign -n 10 --shards 2 --opt-matrix 0,2 @resume=om.kill
ch.sh1     campaign -n 10 --shards 1 $CHAOS
ch.sh2     campaign -n 10 --shards 2 $CHAOS
oom.sh1    campaign -n 10 --shards 1 --faults oom=0.5 --fault-seed 5 @log
oom.sh2    campaign -n 10 --shards 2 --faults oom=0.5 --fault-seed 5 @log
flight     campaign -n 10 --shards 2 --faults oom=1.0 --fault-seed 9 @tel @serve=30
fuzz       fuzz -n 40 --seed 7
fuzz.tel   fuzz -n 40 --seed 7 @tel
bisect     bisect @wc -c gcc -O 2
bisect.2   bisect @wc -c gcc -O 2
dump-ir    compile @wc -O 2 --dump-ir=constfold
emit-ir    compile @wc -O 2 --emit-ir
quickstart example quickstart
invent     example invent_mutators
diff       example differential
hunt       example bughunt
hunt.2     example bughunt
"

# ------------------------------------------------------------------ rows
# A row holds when the two artifacts (<run>/<file>) are byte-identical
# and non-empty after the filter: wallclock drops the metric families
# that read the clock or the GC (span, gc, telemetry), untimed the
# report's two span-timing sections.
ROWS='
# contract       reference                     variant                       filter
observer≡plain   c.j1/out                      c.obs/out
observer≡plain   fuzz/out                      fuzz.tel/out
jobs:1≡4         c.j1/out                      c.j4/out
jobs:1≡2         c.j1/out                      c.ckpt/out
jobs:1≡4         c.obs/log.jsonl               c.j4/log.jsonl
jobs:1≡4         f.j1/out                      f.j4/out
jobs:1≡4         f.j1/log.jsonl                f.j4/log.jsonl
jobs:1≡4         b.j1/out                      b.j4/out
jobs:1≡4         s.j1/out                      s.j4/out
shards:1≡2       c.j1/out                      c.sh1/out
shards:1≡2       c.j1/out                      c.sh2/out
shards:1≡2       c.sh1/log.jsonl               c.sh2/log.jsonl
shards:1≡2       c.sh1/tel/metrics.prom        c.sh2/tel/metrics.prom        wallclock
shards:1≡2       c.sh1/tel/campaign-report.md  c.sh2/tel/campaign-report.md  untimed
shards:1≡2       c.sh1/tel/mutator-yield.json  c.sh2/tel/mutator-yield.json
shards:1≡2       om.sh1/out                    om.sh2/out
shards:1≡2       oom.sh1/log.jsonl             oom.sh2/log.jsonl
jobs≡shards      c.obs/log.jsonl               c.sh2/log.jsonl
jobs≡shards      c.j4/tel/metrics.prom         c.sh1/tel/metrics.prom        wallclock
resume≡whole     c.ckpt/out                    c.lose/out
resume≡whole     f.j4/out                      f.lose/out
resume≡whole     om.sh2/out                    om.resume/out
chaos≡clean      c.j1/out                      c.kill/out
chaos≡clean      c.j1/out                      ch.sh1/out
chaos≡clean      c.j1/out                      ch.sh2/out
scrape≡final     c.obs/tel/metrics.prom        c.obs/scrape.prom             wallclock
rerun≡run        bisect/out                    bisect.2/out
rerun≡run        hunt/out                      hunt.2/out
'

# Each well-formedness check reads one artifact: `has` greps it for a
# basic regex, `every` matches each of its lines against an extended
# regex, and `json` loads every file the path matches as one JSON
# document d and evaluates a Python expression over it.
CHECKS='
# artifact                        test   argument
fuzz.tel/tel/trace.jsonl          json   True
fuzz.tel/tel/trace.jsonl          has    "name":"compile.
fuzz.tel/tel/metrics.json         json   all(isinstance(d[k], dict) for k in ("counters", "gauges", "histograms"))
fuzz.tel/tel/metrics.prom         has    ^# TYPE metamut_compile_total counter
fuzz.tel/tel/metrics.prom         has    ^metamut_.*_bucket{le="+Inf"} [0-9]
fuzz.tel/tel/campaign-report.md   has    ^## .
fuzz.tel/tel/campaign-report.md   has    ^## Where the time goes
fuzz.tel/tel/profile.folded       every  ^[^ ]+ [0-9]+$
fuzz.tel/tel/profile.folded       has    compile
fuzz.tel/tel/mutator-yield.json   json   d[0]["mutator"] and d[0]["fresh_edges"] >= 0
c.obs/healthz                     has    ^200 ok$
c.obs/scrape.prom                 has    ^# TYPE metamut_compile_total counter
f.j1/log.jsonl                    has    "event":"fault.injected"
oom.sh2/log.jsonl                 has    "event":"lease.verdict"
c.kill/err                        has    shard recovery: 1 worker death
ch.sh2/err                        has    shard recovery:
flight/healthz                    has    ^503
flight/err                        has    QUARANTINED
flight/tel/flight-*.json          json   d["unit"] and d["reason"] and isinstance(d["events"], list)
bisect/out                        has    ^culprit passes:  constfold$
bisect/out                        has    ^first divergent: constfold$
dump-ir/out                       has    ^;; IR before constfold
dump-ir/out                       has    ^;; IR after constfold
emit-ir/out                       has    ^func main
quickstart/out                    has    .
invent/out                        has    .
diff/out                          has    .
'

# scrape DIR LIMIT: once the run writing DIR/err names its address
# (within 10 s), poll its /status.json until "done" (within LIMIT s),
# then keep DIR/healthz and DIR/scrape.prom.
scrape() {
  python3 - "$@" <<'EOF'
import json, sys, time, urllib.error, urllib.request
d, limit = sys.argv[1], float(sys.argv[2])
http = urllib.request.build_opener(urllib.request.ProxyHandler({}))
def poll(seconds, probe, what):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        got = probe()
        if got:
            return got
        time.sleep(0.1)
    sys.exit("FAIL: %s: %s" % (d, what))
def address():
    for line in open(d + "/err"):
        if line.startswith("serving on "):
            return line[len("serving on "):].strip()
addr = poll(10, address, "--serve never reported its bound address")
def get(path):
    try:
        with http.open("http://" + addr + path, timeout=5) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()
    except OSError:
        return None, ""
def done():
    code, body = get("/status.json")
    try:
        return code == 200 and json.loads(body)["done"] is True
    except (ValueError, KeyError):
        return False
poll(limit, done, "/status.json never reported done")
code, body = get("/healthz")
open(d + "/healthz", "w").write("%s %s\n" % (code, body.strip()))
code, body = get("/metrics")
if code != 200:
    sys.exit("FAIL: %s: /metrics scrape answered %s" % (d, code))
open(d + "/scrape.prom", "w").write(body)
EOF
}

# kill_mid_run DIR PID: SIGKILL the coordinator PID once it has a worker
# and has journaled a unit, or after about 1 s (it must have a worker by
# then), then give its workers at most 5 s to read EOF on their sockets
# (or EPIPE on their next send) and exit.
kill_mid_run() {
  i=0
  workers=""
  while [ $i -lt 20 ]; do
    workers=$(pgrep -P "$2" || true)
    if [ -n "$workers" ] && ls "$1"/ckpt/journal-*.ckpt > /dev/null 2>&1; then
      break
    fi
    sleep 0.05
    i=$((i + 1))
  done
  kill -9 "$2" 2> /dev/null || true
  wait "$2" 2> /dev/null || true
  [ -n "$workers" ] || fail "${1##*/}: the coordinator had no worker processes to check"
  i=0
  while :; do
    alive=""
    for p in $workers; do
      if kill -0 "$p" 2> /dev/null; then alive="$alive $p"; fi
    done
    [ -n "$alive" ] && [ $i -lt 50 ] || break
    sleep 0.1
    i=$((i + 1))
  done
  if [ -n "$alive" ]; then
    ps -o pid=,ppid=,args= -p "$(echo $alive | tr ' ' ,)" >&2 || true
    kill -9 $alive 2> /dev/null || true
    fail "${1##*/}: worker(s)$alive outlived the SIGKILLed coordinator by 5 s"
  fi
}

# run NAME: make the run NAME of the table, unless it is made already.
run() {
  [ ! -e "$W/$1/done" ] || return 0
  local name="$1" spec word dir env="" serve="" kill="" prog="$CLI" pid
  spec=$(printf '%s\n' "$RUNS" | awk -v n="$name" '$1 == n { $1 = ""; print; exit }')
  [ -n "$spec" ] || fail "no run named $name"
  dir="$W/$name"
  mkdir -p "$dir"
  set --
  for word in $spec; do
    case $word in
      [A-Z]*=*) env="$env $word" ;;
      example) prog=example ;;
      @tel) set -- "$@" --telemetry "$dir/tel" ;;
      @log) set -- "$@" --log "$dir/log.jsonl" ;;
      @log:*) set -- "$@" --log "$dir/log.jsonl:${word#@log:}" ;;
      @ckpt) set -- "$@" --checkpoint "$dir/ckpt" ;;
      @lose=*)
        run "${word#*=}"
        rm "$W/${word#*=}/ckpt/journal-uCFuzz.s-GCC.ckpt"
        set -- "$@" --checkpoint "$W/${word#*=}/ckpt" --resume ;;
      @resume=*)
        run "${word#*=}"
        set -- "$@" --checkpoint "$W/${word#*=}/ckpt" --resume ;;
      @serve=*)
        serve="${word#*=}"
        env="$env METAMUT_SERVE_LINGER=10"
        set -- "$@" --serve 127.0.0.1:0 ;;
      @kill) kill=yes ;;
      @wc) set -- "$@" "$W/wrongcode.c" ;;
      *)
        if [ "$prog" = example ]; then prog="$EX/$word.exe"; else set -- "$@" "$word"; fi ;;
    esac
  done
  echo "-- run $name:$spec"
  env $env "$prog" "$@" < /dev/null > "$dir/out" 2> "$dir/err" &
  pid=$!
  BG=$pid
  if [ -n "$kill" ]; then
    kill_mid_run "$dir" "$pid"
  else
    [ -z "$serve" ] || scrape "$dir" "$serve" || exit 1
    wait "$pid" || { cat "$dir/err" >&2; fail "run $name exited nonzero"; }
  fi
  BG=""
  if [ -d "$dir/ckpt" ]; then
    for j in "$dir"/ckpt/journal-*.ckpt; do
      [ -e "$j" ] || continue
      size=$(wc -c < "$j")
      [ "$size" -le 65536 ] || fail "$name: $(basename "$j") is $size bytes (over 64 KiB)"
    done
  fi
  : > "$dir/done"
}

wallclock() { grep -Ev 'metamut_(span|gc|telemetry)_' "$1" || true; }
untimed() {
  awk '/^## (Time by span|Where the time goes)/ { s = 1; next } /^## / { s = 0 } !s' "$1"
}

# table TEXT: the lines of TEXT that are neither blank nor comments.
table() { printf '%s\n' "$1" | grep -v -e '^ *#' -e '^ *$'; }

echo "== determinism contracts =="
while read -r contract ref var filter; do
  run "${ref%%/*}"
  run "${var%%/*}"
  for a in "$ref" "$var"; do
    [ -s "$W/$a" ] || fail "$contract: $a is missing or empty"
  done
  "${filter:-cat}" "$W/$ref" > "$W/ref"
  "${filter:-cat}" "$W/$var" > "$W/var"
  if ! cmp -s "$W/ref" "$W/var"; then
    diff "$W/ref" "$W/var" | head -n 40 >&2 || true
    fail "$contract: $var differs from $ref"
  fi
  echo "ok $contract: $ref = $var"
done <<EOF
$(table "$ROWS")
EOF

echo "== artifacts well-formed =="
while read -r path test arg; do
  run "${path%%/*}"
  case $test in
    has) grep -q -- "$arg" "$W/$path" ;;
    every) [ -s "$W/$path" ] && ! grep -qvE -- "$arg" "$W/$path" ;;
    json) python3 -c '
import glob, json, sys
files = glob.glob(sys.argv[1])
for f in files:
    d = json.load(open(f))
    if not eval(sys.argv[2]):
        sys.exit(1)
sys.exit(0 if files else 1)' "$W/$path" "$arg" ;;
    *) false ;;
  esac || fail "$path: $test $arg"
  echo "ok $path: $test $arg"
done <<EOF
$(table "$CHECKS")
EOF

echo "OK"
