#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end distributed smoke over real processes.
#
# Starts two worker pfserves and a coordinator pointed at them, submits
# the same job to the coordinator (sharded across both workers) and
# directly to one worker (the single-node reference), and asserts the
# two /result bodies are byte-identical — the distribution layer's core
# guarantee, checked over real sockets. Runs the check for five miners
# leased as task-block shards (eclat with a plain concatenation merge,
# closedrows and topk with root work, maximal and seqfusion with their
# own merges) and for fusion and apriori (one shard of one unit each).
# Finally asserts the coordinator's /metrics recorded completed shard
# leases.
#
# Usage: scripts/cluster_smoke.sh [pfserve-binary]
# (default: builds ./cmd/pfserve into a temp dir)
set -euo pipefail
cd "$(dirname "$0")/.."

PFSERVE="${1:-}"
if [ -z "$PFSERVE" ]; then
  PFSERVE=$(mktemp -d)/pfserve
  go build -o "$PFSERVE" ./cmd/pfserve
fi

W1=127.0.0.1:18191
W2=127.0.0.1:18192
COORD=127.0.0.1:18190

"$PFSERVE" -addr "$W1" -workers 2 &
"$PFSERVE" -addr "$W2" -workers 2 &
"$PFSERVE" -addr "$COORD" -workers 2 -peers "http://$W1,http://$W2" &
trap 'kill $(jobs -p) 2>/dev/null' EXIT

for addr in $W1 $W2 $COORD; do
  for i in $(seq 1 50); do
    curl -sf "http://$addr/healthz" > /dev/null && break
    sleep 0.2
  done
  curl -sf "http://$addr/healthz" > /dev/null || { echo "$addr never came up"; exit 1; }
done

# submit <addr> <algorithm>: prints the job id
submit() {
  curl -sf "http://$1/jobs" -d '{
    "algorithm": "'"$2"'",
    "dataset":   {"generator": "random", "txns": 60, "items": 24, "density": 0.4, "seed": 3},
    "options":   {"min_count": 4, "k": 20, "min_size": 1, "max_size": 4, "seed": 7}
  }' | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

# await <addr> <id>: polls to terminal, fails unless done
await() {
  for i in $(seq 1 300); do
    state=$(curl -sf "http://$1/jobs/$2" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
    case "$state" in
      done) return 0 ;;
      failed|canceled) echo "job $2 on $1 ended $state:"; curl -s "http://$1/jobs/$2"; return 1 ;;
    esac
    sleep 0.2
  done
  echo "job $2 on $1 never finished (state=$state)"
  return 1
}

for alg in eclat closedrows maximal topk seqfusion fusion apriori; do
  cid=$(submit "$COORD" "$alg")
  rid=$(submit "$W1" "$alg")
  await "$COORD" "$cid"
  await "$W1" "$rid"
  chash=$(curl -sf "http://$COORD/jobs/$cid/result" | sha256sum | cut -d' ' -f1)
  rhash=$(curl -sf "http://$W1/jobs/$rid/result" | sha256sum | cut -d' ' -f1)
  if [ "$chash" != "$rhash" ]; then
    echo "$alg: distributed result $chash != single-node $rhash"
    exit 1
  fi
  echo "$alg: distributed ≡ single-node ($chash)"
done

# The eclat job must have fanned out: completed shard leases on record.
done_shards=$(curl -sf "http://$COORD/metrics" | awk '/^pfserve_shards_total\{state="done"\}/ {print $2}')
echo "pfserve_shards_total{state=\"done\"} = ${done_shards:-0}"
[ "${done_shards:-0}" -ge 2 ] || { echo "want >= 2 completed shard leases"; exit 1; }

echo "cluster smoke OK"
