#!/bin/sh
# Tier-1 gate: refuse tracked build artifacts, then build and run the
# full test suite. CI and pre-push hooks call this; it exits non-zero
# on the first failure.
set -eu

cd "$(dirname "$0")/.."

tracked_build=$(git ls-files | grep '^_build/' || true)
if [ -n "$tracked_build" ]; then
  echo "check.sh: build artifacts are tracked by git:" >&2
  echo "$tracked_build" | head -5 >&2
  echo "check.sh: run 'git rm -r --cached _build' (see .gitignore)" >&2
  exit 1
fi

dune build
dune runtest

# differential oracle: Theorem 1 vs the FMR baseline, >= 500 instances
dune build @difftest

# verifier-memo differential suite: group-check and view memos on vs
# off, over honest and faulty labelings of every registered property
# (see test/test_packed.ml)
dune build @packed

# sharded pool: a 2-worker smoke run of the example manifest must exit 0
# and agree with the sequential run on the canonical JSONL
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# wait_socket PATH PID WHAT: give a daemon 10 s to create its socket;
# past that, kill PID and fail naming WHAT
wait_socket() {
  waited=0
  until [ -S "$1" ]; do
    waited=$((waited + 1))
    if [ "$waited" -gt 100 ]; then
      echo "check.sh: $3 did not come up within 10s" >&2
      kill -KILL "$2" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
}
./_build/default/bin/certd.exe --manifest examples/service/jobs.manifest \
  --jobs 1 --cache-dir "$tmp/c1" --jsonl "$tmp/j1" --canonical --quiet
./_build/default/bin/certd.exe --manifest examples/service/jobs.manifest \
  --jobs 2 --cache-dir "$tmp/c2" --jsonl "$tmp/j2" --canonical --quiet
if ! cmp -s "$tmp/j1" "$tmp/j2"; then
  echo "check.sh: certd --jobs 1 and --jobs 2 disagree on the JSONL" >&2
  diff "$tmp/j1" "$tmp/j2" >&2 || true
  exit 1
fi

# daemon smoke test: a certd-server on a tmp socket must serve 3 jobs
# submitted via `certd --connect`, the canonical JSONL must be
# byte-identical to batch mode, and SIGTERM must drain cleanly (exit 0,
# socket unlinked)
cat > "$tmp/daemon.manifest" <<EOF
id=ring file=$PWD/examples/service/ring.dimacs property=connected k=2 seed=1
id=tree16 gen=tree n=16 gseed=4 property=acyclic k=3
id=match12 gen=path n=12 property=perfect_matching k=1
EOF
./_build/default/bin/certd.exe --manifest "$tmp/daemon.manifest" \
  --jobs 1 --jsonl "$tmp/batch.jsonl" --canonical --quiet
./_build/default/bin/certd_server.exe --socket "$tmp/certd.sock" \
  --workers 2 --quiet &
server_pid=$!
wait_socket "$tmp/certd.sock" "$server_pid" "certd-server"
./_build/default/bin/certd.exe --manifest "$tmp/daemon.manifest" \
  --connect "$tmp/certd.sock" --jsonl "$tmp/daemon.jsonl" --canonical --quiet
if ! cmp -s "$tmp/batch.jsonl" "$tmp/daemon.jsonl"; then
  echo "check.sh: daemon and batch mode disagree on the canonical JSONL" >&2
  diff "$tmp/batch.jsonl" "$tmp/daemon.jsonl" >&2 || true
  kill -KILL "$server_pid" 2>/dev/null || true
  exit 1
fi
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "check.sh: certd-server did not exit 0 on SIGTERM" >&2
  exit 1
fi
if [ -e "$tmp/certd.sock" ]; then
  echo "check.sh: certd-server left its socket behind" >&2
  exit 1
fi

# incremental differential gate: >= 500 random edit batches across
# >= 3 families and >= 3 properties, every step byte-compared against
# a forced from-scratch session (see test/test_incr.ml)
dune build @incr

# daemon edit-stream smoke: the same edit stream served once plain
# (--edits) and once tagged full (--edits-full, which only tags each
# step's mode) against one daemon must produce byte-identical
# canonical JSONL
cat > "$tmp/dyn.manifest" <<EOF
id=dyn gen=path n=24 property=connected k=2 seed=7
EOF
cat > "$tmp/dyn.edits" <<EOF
add=0-5,3-9
del=3-9
add=3-9 del=0-5
add=0-5
del=0-5 add=7-12
EOF
./_build/default/bin/certd_server.exe --socket "$tmp/dyn.sock" \
  --workers 1 --quiet &
dyn_pid=$!
wait_socket "$tmp/dyn.sock" "$dyn_pid" "certd-server (edit smoke)"
./_build/default/bin/certd.exe --manifest "$tmp/dyn.manifest" \
  --connect "$tmp/dyn.sock" --edits "$tmp/dyn.edits" \
  --jsonl "$tmp/dyn-incr.jsonl" --canonical --quiet
./_build/default/bin/certd.exe --manifest "$tmp/dyn.manifest" \
  --connect "$tmp/dyn.sock" --edits "$tmp/dyn.edits" --edits-full \
  --jsonl "$tmp/dyn-full.jsonl" --canonical --quiet
if ! cmp -s "$tmp/dyn-incr.jsonl" "$tmp/dyn-full.jsonl"; then
  echo "check.sh: incremental and forced-full edit streams disagree" >&2
  diff "$tmp/dyn-incr.jsonl" "$tmp/dyn-full.jsonl" >&2 || true
  kill -KILL "$dyn_pid" 2>/dev/null || true
  exit 1
fi
kill -TERM "$dyn_pid"
wait "$dyn_pid" || true

# E13 quick campaign: delta sessions vs from-scratch reproof on
# n=1024 edit streams; fails on any verdict divergence
./_build/default/bench/main.exe incr quick

# E12 quick chaos drill: the daemon under fault-injected concurrent
# clients — backpressure, crash/respawn, degraded serving, clean drain
./_build/default/bench/main.exe chaos quick

# E16 + E10 quick sweep: streaming corpus (10^4 jobs under a heap
# budget, canonical digests equal across batch / streamed N in {1,2} /
# file replay, filter counters live) then pool determinism on the
# bench corpus (< 30 s total)
./_build/default/bench/main.exe scale quick

# E11 perf gate: hot-path microbenchmarks vs the committed BENCH_PERF.json
# baseline (allocation counts and speedup ratios are gated tightly;
# ns/op only against a catastrophic backstop — see EXPERIMENTS.md E11).
# After a deliberate perf change, refresh the baseline with
# `./_build/default/bench/main.exe perf update` and commit BENCH_PERF.json.
./_build/default/bench/main.exe perf quick

# label-size breakdown gate: the largest label of each fresh_pw2
# reference instance, split by field class, must match the committed
# BENCH_BITS.json exactly (a codec change refreshes it with
# `./_build/default/bench/main.exe bits update`)
./_build/default/bench/main.exe bits check

# crash-recovery smoke: a supervised, journaled daemon is SIGKILLed
# mid edit-stream. The supervisor must respawn it, the client must
# reconnect and resume its session, and the canonical JSONL must be
# byte-identical to an uninterrupted run of the same stream. The kill
# is timed off journal growth, so on a fast machine it can land after
# the stream already ended — retry a few times and require at least
# one observed resume.
: > "$tmp/crash.edits"
i=0
while [ "$i" -lt 150 ]; do
  printf 'add=0-5,3-9\ndel=3-9\nadd=3-9 del=0-5\nadd=0-5\ndel=0-5 add=7-12\n' \
    >> "$tmp/crash.edits"
  i=$((i + 5))
done
./_build/default/bin/certd_server.exe --socket "$tmp/kill.sock" \
  --workers 1 --quiet --supervise --journal-dir "$tmp/kill-journal" \
  --fsync always --checkpoint-every 100000 &
sup_pid=$!
wait_socket "$tmp/kill.sock" "$sup_pid" "supervised certd-server"
./_build/default/bin/certd.exe --manifest "$tmp/dyn.manifest" \
  --connect "$tmp/kill.sock" --edits "$tmp/crash.edits" \
  --session smoke-base --jsonl "$tmp/kill-base.jsonl" --canonical --quiet
resumed=0
attempt=0
while [ "$attempt" -lt 5 ]; do
  attempt=$((attempt + 1))
  before=$(wc -c < "$tmp/kill-journal/journal.log")
  ./_build/default/bin/certd.exe --manifest "$tmp/dyn.manifest" \
    --connect "$tmp/kill.sock" --edits "$tmp/crash.edits" \
    --session "smoke-kill$attempt" --jsonl "$tmp/kill-run.jsonl" \
    --canonical --quiet 2> "$tmp/kill-client.err" &
  client_pid=$!
  j=0
  while :; do
    now=$(wc -c < "$tmp/kill-journal/journal.log" 2>/dev/null || echo "$before")
    if [ "$now" -gt $((before + 2000)) ]; then break; fi
    if ! kill -0 "$client_pid" 2>/dev/null; then break; fi
    j=$((j + 1))
    if [ "$j" -gt 200 ]; then break; fi
    sleep 0.02
  done
  kill -KILL "$(cat "$tmp/kill.sock.pid")" 2>/dev/null || true
  if ! wait "$client_pid"; then
    echo "check.sh: edit-stream client failed across the daemon kill" >&2
    cat "$tmp/kill-client.err" >&2
    kill -KILL "$sup_pid" 2>/dev/null || true
    exit 1
  fi
  if ! cmp -s "$tmp/kill-base.jsonl" "$tmp/kill-run.jsonl"; then
    echo "check.sh: resumed edit stream diverged from the clean run" >&2
    diff "$tmp/kill-base.jsonl" "$tmp/kill-run.jsonl" >&2 || true
    kill -KILL "$sup_pid" 2>/dev/null || true
    exit 1
  fi
  if grep -q "resumed" "$tmp/kill-client.err"; then
    resumed=1
    break
  fi
done
if [ "$resumed" -ne 1 ]; then
  echo "check.sh: SIGKILL never landed mid-stream (no resume observed)" >&2
  kill -KILL "$sup_pid" 2>/dev/null || true
  exit 1
fi
kill -TERM "$sup_pid"
if ! wait "$sup_pid"; then
  echo "check.sh: supervised certd-server did not exit 0 on SIGTERM" >&2
  exit 1
fi

# E14 quick crash campaign: randomized SIGKILLs during streaming edit
# sessions; resumed streams must stay byte-identical with zero unsound
# serves (see bench/main.ml e14_crash)
./_build/default/bench/main.exe crash quick
