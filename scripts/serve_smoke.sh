#!/usr/bin/env bash
# Serve-mode smoke test: build pvmsimd with the race detector, start it with
# the wall-clock pacer and a journal, drive one session over the HTTP
# control plane — submit a job, command a migration, stream five seconds of
# metrics, crash a host, watch the recovery — then shut it down cleanly and
# replay the journal headlessly. Everything a CI runner needs is curl and
# the usual shell tools.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:8090}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
trap 'kill "$DAEMON_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

say() { echo "serve-smoke: $*"; }
post() { curl -sf -X POST -d "$2" "$BASE$1"; }

say "building pvmsimd (-race)"
go build -race -o "$WORK/pvmsimd" ./cmd/pvmsimd

# A count that cannot describe a cluster — from a flag or from a journal
# header — is a usage error (exit 2 and a message naming the field), not a
# Go panic, and leaves no journal file behind.
refused() { # refused <field> <pvmsimd args...>
  local field="$1" status=0; shift
  "$WORK/pvmsimd" "$@" >"$WORK/refused.log" 2>&1 || status=$?
  if [ "$status" -ne 2 ] || grep -q 'panic:' "$WORK/refused.log" || ! grep -q "$field" "$WORK/refused.log"; then
    say "pvmsimd $* should exit 2 naming $field, got $status:"; cat "$WORK/refused.log"; exit 1
  fi
}
say "refusing impossible host counts"
refused hosts -hosts -1 -journal "$WORK/refused.jsonl"
[ ! -e "$WORK/refused.jsonl" ] || { say "refused start left a journal behind"; exit 1; }
echo '{"version":1,"config":{"hosts":-3,"seed":0,"checkpoint_every":2,"load_threshold":0}}' >"$WORK/badheader.jsonl"
refused hosts -replay "$WORK/badheader.jsonl"

say "starting daemon on $ADDR (pacer 100ms wall -> 100ms virtual)"
"$WORK/pvmsimd" -addr "$ADDR" -hosts 3 -journal "$WORK/session.jsonl" \
  -tick-wall 100ms -tick-virtual 100ms >"$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/v1/hosts" >/dev/null 2>&1 && break
  kill -0 "$DAEMON_PID" 2>/dev/null || { cat "$WORK/daemon.log"; exit 1; }
  sleep 0.1
done
curl -sf "$BASE/v1/hosts" | grep -q '"alive":true' || { say "no hosts"; exit 1; }

say "submitting 3-host opt job"
post /v1/jobs '{"kind":"opt","iterations":30}' | grep -q '"id":1'

say "streaming metrics for 5 seconds"
curl -sf -N --max-time 5 "$BASE/v1/metrics/stream" >"$WORK/stream.jsonl" || true &
STREAM_PID=$!

post /v1/advance '{"ms":3000}' >/dev/null

# Pick a live task on host 1 and command its migration to host 2.
VICTIM=$(curl -sf "$BASE/v1/tasks" | tr '}' '\n' | grep '"host":1' \
  | grep -o '"orig":[0-9]*' | head -1 | cut -d: -f2)
[ -n "$VICTIM" ] || { say "no task on host 1 to migrate"; exit 1; }
say "migrating task $VICTIM from host 1 to host 2"
post /v1/migrations "{\"orig\":$VICTIM,\"to\":2}" >/dev/null
post /v1/advance '{"ms":2000}' >/dev/null
curl -sf "$BASE/v1/migrations" | grep -q '"from":1,"to":2' || { say "migration not recorded"; exit 1; }

say "crashing host 2 (8s outage)"
post /v1/faults '{"kind":"host-crash","host":2,"outage_ms":8000}' >/dev/null
post /v1/advance '{"ms":600000}' >/dev/null

curl -sf "$BASE/v1/metrics" >"$WORK/metrics.json"
grep -q '"recoveries":[1-9]' "$WORK/metrics.json" || { say "no recovery recorded"; cat "$WORK/metrics.json"; exit 1; }
grep -q '"hosts_alive":3' "$WORK/metrics.json" || { say "host did not revive"; exit 1; }
curl -sf "$BASE/v1/jobs/1" | grep -q '"done":true' || { say "job did not finish"; exit 1; }

wait "$STREAM_PID" 2>/dev/null || true
FRAMES=$(grep -c '^data: ' "$WORK/stream.jsonl" || true)
say "stream delivered $FRAMES frames"
[ "$FRAMES" -ge 5 ] || { say "expected at least 5 streamed frames"; exit 1; }
grep -q '"recoveries":[1-9]' "$WORK/stream.jsonl" || { say "recovery never appeared on the stream"; exit 1; }

say "shutting down"
post /v1/shutdown '{}' >/dev/null
wait "$DAEMON_PID"
STATUS=$?
DAEMON_PID=""
[ "$STATUS" -eq 0 ] || { say "daemon exited $STATUS"; cat "$WORK/daemon.log"; exit 1; }
grep -q "shut down cleanly" "$WORK/daemon.log" || { cat "$WORK/daemon.log"; exit 1; }

say "replaying the journal headlessly"
"$WORK/pvmsimd" -replay "$WORK/session.jsonl" >"$WORK/replay.log"
cat "$WORK/replay.log"
grep -q '^fingerprint: [0-9a-f]\{16\}$' "$WORK/replay.log" || { say "replay produced no fingerprint"; exit 1; }

# A daemon that dies mid-append leaves a torn final line. The replay drops
# it with a note on stderr, exits 0, and equals the replay of the complete
# lines before it.
say "replaying a journal torn mid-line"
LAST=$(tail -n 1 "$WORK/session.jsonl")
head -n -1 "$WORK/session.jsonl" >"$WORK/prefix.jsonl"
{ cat "$WORK/prefix.jsonl"; printf '%s' "${LAST:0:$((${#LAST} / 2))}"; } >"$WORK/torn.jsonl"
"$WORK/pvmsimd" -replay "$WORK/prefix.jsonl" >"$WORK/prefix.log"
"$WORK/pvmsimd" -replay "$WORK/torn.jsonl" >"$WORK/torn.log" 2>"$WORK/torn.err" ||
  { say "torn replay exited $?"; cat "$WORK/torn.err"; exit 1; }
grep -q 'torn line' "$WORK/torn.err" || { say "torn replay printed no note"; cat "$WORK/torn.err"; exit 1; }
[ "$(grep '^fingerprint:' "$WORK/torn.log")" = "$(grep '^fingerprint:' "$WORK/prefix.log")" ] ||
  { say "torn replay differs from its complete prefix"; cat "$WORK/torn.log" "$WORK/prefix.log"; exit 1; }

say "OK"
