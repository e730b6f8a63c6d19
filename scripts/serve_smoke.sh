#!/usr/bin/env bash
# Smoke-tests the flowrank-serve daemon end to end, the seven things unit
# tests cannot pin from inside the process:
#
#   1. a finite serving run (unpaced replay, bin-limited) exits 0 and
#      prints the machine-readable final line;
#   2. the snapshot endpoint answers HTTP polls while the daemon runs, and
#      SIGINT produces a clean exit with the final line still printed
#      (graceful shutdown through the StopGate path);
#   3. the ndjson stdin source ingests records and skips malformed lines —
#      junk, a 200 KiB line with no newline in it, and bytes that are not
#      UTF-8 each count once, and none of them ends the run — and prints
#      the same reports and counters when the feed comes through a pipe
#      written 37 bytes at a time, so that reads cut lines anywhere; a
#      stdin that cannot be read (a directory) exits non-zero with one
#      "drive aborted:" on stderr;
#   4. fleet mode (`tenants = 3`) over tenant-tagged ndjson — a junk line, a
#      line that is not UTF-8 and records of a tenant outside the slab among
#      them — prints the same final counters whole-file and through the
#      37-byte pipe, and the counters the hand-looped fleet host printed
#      before fleet mode ran through `Fleet::drive`;
#   5. SIGINT stops an ndjson daemon blocked on idle stdin — single mode and
#      fleet mode, with nothing sent and with one record and half a line
#      sent — with exit 0 and the final line within 2 s;
#   6. the same records as compact lines in the ledger renderer's field
#      order, CRLF-terminated, with "ts" moved last, spaced, and with every
#      "ts" in exponent form or with 25 fraction digits, all read by the one
#      field walk, print the same reports and counters;
#   7. `source = socket` reads a record, a record split across a pause and
#      half a line from a client that stays connected, and SIGINT stops it
#      with exit 0 and "packets":2 within 2 s.
#
# Usage: scripts/serve_smoke.sh   (CI runs it after the test suite)
#
# Needs only bash (/dev/tcp for the poll) and the repo toolchain.

set -euo pipefail
cd "$(dirname "$0")/.."

# The snapshot endpoint answers one request per connection and closes; a
# close racing our request write must surface as a retryable write error,
# not kill the whole script via bash's fatal default SIGPIPE.
trap '' PIPE

cargo build --release -p flowrank-serve
serve=./target/release/flowrank-serve

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"; kill %% 2>/dev/null || true' EXIT

fail() {
    echo "serve_smoke: FAIL: $*" >&2
    exit 1
}

# The port daemon `$1` announces on its stderr file `$2`, as `$3` followed
# by `127.0.0.1:<port>`.
announced_port() {
    for _ in $(seq 1 100); do
        sed -n "s#.*${3}127\.0\.0\.1:\([0-9]*\).*#\1#p" "$2" | grep . && return
        kill -0 "$1" 2>/dev/null || fail "daemon died early: $(cat "$2")"
        sleep 0.1
    done
    fail "daemon never announced $3"
}

# --- Leg 1: finite unpaced replay ------------------------------------------
cat > "$workdir/finite.conf" <<'EOF'
source = replay
scenario = mixed
seed = 2026
speed = 0
window_ms = 500
rates = 0.1
runs = 2
bin_secs = 60
top_t = 10
topk = space-saving:64
retain_bins = 4
max_bins = 3
EOF
final=$("$serve" --config "$workdir/finite.conf" 2>"$workdir/finite.err")
case "$final" in
    '{"serve":"final"'*'"packets":'*) ;;
    *) fail "finite run: unexpected final line: $final" ;;
esac
packets=$(printf '%s' "$final" | sed -n 's/.*"packets":\([0-9]*\).*/\1/p')
[ "${packets:-0}" -gt 0 ] || fail "finite run processed no packets: $final"
echo "serve_smoke: finite replay ok ($packets packets)"

# --- Leg 2: snapshot polls + SIGINT ----------------------------------------
# speed 10 stretches the ~180 trace-second replay to ~18 s of wall time, so
# the poll and the SIGINT both land while the drive is still running; 5 s
# bins close every 0.5 s of wall time, so the snapshot has state by poll
# time.
cat > "$workdir/daemon.conf" <<'EOF'
source = replay
scenario = mixed
seed = 2026
speed = 10
window_ms = 500
rates = 0.1
runs = 1
bin_secs = 5
top_t = 10
retain_bins = 4
snapshot_listen = 127.0.0.1:0
EOF
"$serve" --config "$workdir/daemon.conf" > "$workdir/daemon.out" 2> "$workdir/daemon.err" &
daemon=$!
port=$(announced_port "$daemon" "$workdir/daemon.err" 'snapshot endpoint on http://')

# Let a few bins close, then poll (with retries: a one-shot connection can
# race the server-side close).
sleep 2
poll=""
for _ in 1 2 3 4 5; do
    # The subshell contains a failed connect (a redirection error on exec
    # is fatal to the shell it happens in) and any write/read race.
    poll=$( { exec 3<>"/dev/tcp/127.0.0.1/$port" \
        && printf 'GET / HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3 \
        && timeout 5 cat <&3; } 2>/dev/null ) || true
    [ -n "$poll" ] && break
    kill -0 "$daemon" 2>/dev/null || fail "daemon died before the poll: $(cat "$workdir/daemon.out")"
    sleep 0.3
done
case "$poll" in
    *'"age_s":'*'"bins_seen"'*) ;;
    *) fail "snapshot poll missing age_s watchdog / published state: $poll" ;;
esac
kill -0 "$daemon" 2>/dev/null || fail "daemon ended before SIGINT could be exercised"
echo "serve_smoke: snapshot poll ok (port $port)"

kill -INT "$daemon"
rc=0
wait "$daemon" || rc=$?
[ "$rc" -eq 0 ] || fail "SIGINT exit code $rc (want 0): $(cat "$workdir/daemon.err")"
grep -q '"serve":"final"' "$workdir/daemon.out" \
    || fail "no final line after SIGINT: $(cat "$workdir/daemon.out")"
echo "serve_smoke: SIGINT shutdown ok"

# --- Leg 3: ndjson stdin source --------------------------------------------
cat > "$workdir/ndjson.conf" <<'EOF'
source = ndjson
rates = 0.5
runs = 1
bin_secs = 2
top_t = 5
topk = exact
retain_bins = 4
output = ndjson
EOF
{
    for i in $(seq 0 99); do
        # Among the records: a line over the reader's 64 KiB limit, and one
        # that is not text.
        if [ "$i" -eq 40 ]; then head -c 204800 /dev/zero | tr '\0' 'x'; echo; fi
        if [ "$i" -eq 70 ]; then printf '\xff\xfe\n'; fi
        printf '{"ts": %s.%02d, "src": "10.0.0.%d", "sport": 1234, "dst": "100.64.0.9", "dport": 443, "proto": "udp", "len": 900}\n' \
            $((i / 10)) $((i % 10 * 10)) $((i % 8 + 1))
    done
    echo 'not json'
} > "$workdir/feed.ndjson"
rc=0
"$serve" --config "$workdir/ndjson.conf" < "$workdir/feed.ndjson" \
    > "$workdir/file.out" 2>"$workdir/ndjson.err" || rc=$?
[ "$rc" -eq 0 ] || fail "ndjson run exit code $rc (want 0): $(cat "$workdir/ndjson.err")"
final=$(tail -n 1 "$workdir/file.out")
case "$final" in
    *'"packets":100'*'"malformed_skipped":3'*) ;;
    *) fail "ndjson run: unexpected final line: $final" ;;
esac
[ "$(wc -l < "$workdir/file.out")" -gt 2 ] || fail "ndjson run printed no reports"
# Chunks are what each read delivered; the output must not depend on them.
rc=0
dd if="$workdir/feed.ndjson" bs=37 2>/dev/null \
    | "$serve" --config "$workdir/ndjson.conf" > "$workdir/pipe.out" 2>"$workdir/ndjson.err" || rc=$?
[ "$rc" -eq 0 ] || fail "piped ndjson run exit code $rc (want 0): $(cat "$workdir/ndjson.err")"
timeless() { sed 's/,"elapsed_s":[^}]*//' "$1"; }
cmp <(timeless "$workdir/file.out") <(timeless "$workdir/pipe.out") \
    || fail "reports or counters differ between the file and the 37-byte pipe"
echo "serve_smoke: ndjson ingest ok"
# A fatal stdin read error (stdin is a directory) exits non-zero, and the
# error names the abort once.
rc=0
"$serve" --config "$workdir/ndjson.conf" < / > /dev/null 2> "$workdir/ndjson.err" || rc=$?
[ "$rc" -ne 0 ] || fail "ndjson run over a directory exited 0"
aborts=$({ grep -o 'drive aborted:' "$workdir/ndjson.err" || true; } | wc -l)
[ "$aborts" -eq 1 ] || fail "want one 'drive aborted:', got $aborts: $(cat "$workdir/ndjson.err")"
echo "serve_smoke: ndjson read error ok"

# --- Leg 4: fleet mode over tenant-tagged ndjson ---------------------------
printf 'tenants = 3\nsource = ndjson\nrates = 0.5\nruns = 1\nbin_secs = 2\ntop_t = 5\nflow_budget = 8\n' \
    > "$workdir/fleet.conf"
{
    for i in $(seq 0 1199); do
        if [ "$i" -eq 300 ]; then echo 'not json'; fi
        if [ "$i" -eq 800 ]; then printf '\xff\xfe\n'; fi
        # Runs of five records per tenant; every 97th names tenant 7 (unknown).
        tenant=$((i / 5 % 3))
        if [ $((i % 97)) -eq 0 ]; then tenant=7; fi
        printf '{"ts": %d.%02d, "src": "10.0.%d.%d", "sport": 1234, "dst": "100.64.0.9", "dport": 443, "proto": "udp", "len": 900, "tenant": %d}\n' \
            $((i / 100)) $((i % 100)) $((i % 5)) $((i % 13 + 1)) "$tenant"
    done
} > "$workdir/tagged.ndjson"
# The final line's counters, from "windows" to "unknown_tenant_skipped".
counters() { sed -n 's/.*\("windows":.*"unknown_tenant_skipped":[0-9]*\).*/\1/p'; }
file=$("$serve" --config "$workdir/fleet.conf" < "$workdir/tagged.ndjson" 2>"$workdir/fleet.err" | counters) \
    || fail "fleet run failed: $(cat "$workdir/fleet.err")"
pipe=$(dd if="$workdir/tagged.ndjson" bs=37 2>/dev/null \
    | "$serve" --config "$workdir/fleet.conf" 2>"$workdir/fleet.err" | counters) \
    || fail "piped fleet run failed: $(cat "$workdir/fleet.err")"
[ "$file" = "$pipe" ] || fail "fleet counters differ: file $file, 37-byte pipe $pipe"
# What the hand-looped fleet host printed: windows of 512, 512 and 163.
want='"windows":3,"bins":18,"packets":1187,"evictions":1368,"malformed_skipped":2,"unknown_tenant_skipped":13'
[ "$file" = "$want" ] || fail "fleet counters moved: $file (want $want)"
echo "serve_smoke: fleet ndjson ok"

# --- Leg 5: SIGINT while stdin is idle ------------------------------------
# stdin is a FIFO whose one writer (fd 4, held open here) sends `$3` and then
# nothing, so the daemon blocks in a read that only a signal can interrupt.
mkfifo "$workdir/idle"
exec 4<>"$workdir/idle"
# SIGINTs daemon `$1` (named `$2`) and checks that it exits 0 within 2 s
# with a final line that holds `$3`.
sigint_within_2s() {
    local daemon=$1 name=$2 want=$3
    kill -0 "$daemon" 2>/dev/null || fail "$name: daemon ended early: $(cat "$workdir/idle.err")"
    kill -INT "$daemon"
    for _ in $(seq 1 20); do
        kill -0 "$daemon" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$daemon" 2>/dev/null; then
        kill -9 "$daemon"
        fail "$name: still running 2 s after SIGINT"
    fi
    local rc=0
    wait "$daemon" || rc=$?
    [ "$rc" -eq 0 ] || fail "$name: SIGINT exit code $rc (want 0): $(cat "$workdir/idle.err")"
    grep -q "\"serve\":\"final\".*$want" "$workdir/idle.out" \
        || fail "$name: no final line with $want after SIGINT: $(cat "$workdir/idle.out")"
    echo "serve_smoke: $name SIGINT ok"
}
idle_sigint() {
    local name=$1 conf=$2 sent=$3 want=$4
    "$serve" --config "$conf" < "$workdir/idle" > "$workdir/idle.out" 2> "$workdir/idle.err" &
    local daemon=$!
    printf '%s' "$sent" >&4
    sleep 1
    sigint_within_2s "$daemon" "$name" "$want"
}
record='{"ts":1,"src":"10.0.0.1","sport":1,"dst":"10.0.0.2","dport":2,"proto":"udp","len":9}'
half_line=$'\n'${record:0:40}
idle_sigint "single, idle stdin" "$workdir/ndjson.conf" "" ""
idle_sigint "fleet, idle stdin" "$workdir/fleet.conf" "" ""
idle_sigint "single, half a line" "$workdir/ndjson.conf" "$record$half_line" '"packets":1,'
idle_sigint "fleet, half a line" "$workdir/fleet.conf" "$record$half_line" '"packets":1,'
exec 4>&-

# --- Leg 6: compact lines in two field orders, spaced, and other ts forms ---
# Compact lines in the ledger renderer's field order, tcp with and without
# "seq" and udp, among them a record with a negative "ts" that the reader
# refuses. As printed, CRLF-terminated, with "ts" moved last and spaced by
# sed, the one field walk reads the same records from each. The ts_forms
# feed prints every "ts":S.MMM as "ts":SMMMe-3, and every tenth with 25
# fraction digits: forms the exact one-pass ts read leaves to f64::from_str,
# which must read the same timestamps.
{
    for i in $(seq 0 299); do
        if [ "$i" -eq 150 ]; then
            echo '{"ts":-1,"src":"10.0.0.1","sport":1,"dst":"10.0.0.2","dport":2,"proto":"udp","len":9}'
        fi
        case $((i % 3)) in
            0) tail=',"proto":"tcp","len":1500,"seq":'$((i * 1460)) ;;
            1) tail=',"proto":"tcp","len":40' ;;
            *) tail=',"proto":"udp","len":512' ;;
        esac
        printf '{"ts":%d.%03d,"src":"10.0.%d.%d","sport":%d,"dst":"100.64.0.9","dport":443%s}\n' \
            $((i / 40)) $((i % 40 * 25)) $((i % 3)) $((i % 11 + 1)) $((40000 + i % 7)) "$tail"
    done
} > "$workdir/compact.ndjson"
sed 's/$/\r/' "$workdir/compact.ndjson" > "$workdir/crlf.ndjson"
sed -E 's/^\{("ts":[^,]*),(.*)\}$/{\2,\1}/' "$workdir/compact.ndjson" > "$workdir/ts_last.ndjson"
! grep -q '^{"ts"' "$workdir/ts_last.ndjson" || fail "sed left \"ts\" first"
sed -E 's/":/": /g; s/,"/, "/g' "$workdir/compact.ndjson" > "$workdir/spaced.ndjson"
! grep -q '":[^ ]' "$workdir/spaced.ndjson" || fail "sed left a compact field"
sed -E '0~10 s/"ts":([0-9]+)\.([0-9]{3}),/"ts":\1.\20000000000000000000000,/; t
        s/"ts":([0-9]+)\.([0-9]{3}),/"ts":\1\2e-3,/' \
    "$workdir/compact.ndjson" > "$workdir/ts_forms.ndjson"
[ "$(grep -cE '"ts":[0-9]+e-3,' "$workdir/ts_forms.ndjson")" -eq 270 ] \
    && [ "$(grep -cE '"ts":[0-9]+\.[0-9]{25},' "$workdir/ts_forms.ndjson")" -eq 30 ] \
    || fail "sed left a ts in its printed form"
for feed in compact crlf ts_last spaced ts_forms; do
    "$serve" --config "$workdir/ndjson.conf" < "$workdir/$feed.ndjson" \
        > "$workdir/$feed.out" 2>"$workdir/order.err" \
        || fail "$feed run failed: $(cat "$workdir/order.err")"
done
final=$(tail -n 1 "$workdir/compact.out")
case "$final" in
    *'"packets":300'*'"malformed_skipped":1'*) ;;
    *) fail "compact run: unexpected final line: $final" ;;
esac
for feed in crlf ts_last spaced ts_forms; do
    cmp <(timeless "$workdir/compact.out") <(timeless "$workdir/$feed.out") \
        || fail "reports or counters differ between the compact feed and $feed"
done
echo "serve_smoke: compact, CRLF, ts-last, spaced and ts-forms feeds agree"

# --- Leg 7: source = socket -----------------------------------------------
printf 'source = socket\nlisten = 127.0.0.1:0\nrates = 0.5\nruns = 1\n' > "$workdir/socket.conf"
"$serve" --config "$workdir/socket.conf" > "$workdir/idle.out" 2> "$workdir/idle.err" &
daemon=$!
port=$(announced_port "$daemon" "$workdir/idle.err" 'record listener on ')
exec 5<>"/dev/tcp/127.0.0.1/$port"
printf '%s\n%s' "$record" "${record:0:40}" >&5
sleep 0.4
printf '%s%s' "${record:40}" "$half_line" >&5
sleep 0.5
sigint_within_2s "$daemon" "socket, client connected" '"packets":2,'
exec 5>&-

echo "serve_smoke: all legs passed"
