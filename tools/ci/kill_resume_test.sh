#!/usr/bin/env bash
# Kill/resume leg of the chaos CI job: interrupt a durable streaming CLI run
# -- with injected sink faults and with a real SIGKILL -- then resume with
# --resume and require the final stream and output CSVs to be byte-identical
# to an uninterrupted reference run. A last leg lets the CLI's retry loop
# recover from an injected fault on its own.
#
# Usage: kill_resume_test.sh <path-to-cextend_cli> [workdir]
set -euo pipefail

CLI=$(readlink -f "$1")
WORK=${2:-$(mktemp -d)}
mkdir -p "$WORK"
cd "$WORK"

echo "== kill/resume test in $WORK =="

python3 - <<'EOF'
import random
random.seed(20210614)
areas = [f"A{i}" for i in range(12)]
hid = 0
with open("housing.csv", "w") as f:
    f.write("hid,Area\n")
    for a in areas:
        for _ in range(3):
            f.write(f"{hid},{a}\n")
            hid += 1
with open("persons.csv", "w") as f:
    f.write("pid,Age,Rel,hid\n")
    for p in range(3000):
        age = random.randint(1, 90)
        rel = random.choice(["Owner", "Renter", "Child"])
        f.write(f"{p},{age},{rel},0\n")
with open("spec.txt", "w") as f:
    for i, a in enumerate(areas):
        f.write(f'cc c{i}: COUNT(Area = "{a}") = {random.randint(150, 350)}\n')
    f.write('dc owners: !(t0.Rel = "Owner" & t1.Rel = "Owner" & t0.Age < t1.Age - 40)\n')
print("dataset: 3000 persons, 36 houses, 12 areas")
EOF

run() {
  "$CLI" --r1=persons.csv --r1-schema="pid:int,Age:int,Rel:str,hid:int" \
         --r2=housing.csv --r2-schema="hid:int,Area:str" \
         --key1=pid --fk=hid --key2=hid --constraints=spec.txt \
         --seed=21 --threads=2 "$@"
}

echo "== reference run =="
run --stream-out=ref.stream --manifest=ref.manifest --shards=64 \
    --out-r1=ref_r1.csv --out-r2=ref_r2.csv > /dev/null

compare() {
  cmp ref.stream cur.stream
  cmp ref_r1.csv cur_r1.csv
  cmp ref_r2.csv cur_r2.csv
  echo "== $1: stream + CSVs byte-identical =="
}

# ---- Leg 1: injected fault interruptions (clean process exit mid-stream,
# torn mid-record write included), then a single --resume run. ----
for fault in "manifest.commit=0.5" "sink.torn_write=0.5"; do
  rm -f cur.stream cur.manifest cur_r1.csv cur_r2.csv
  interrupted=0
  for seed in 1 2 3 4 5 6 7 8; do
    rm -f cur.stream cur.manifest
    if ! CEXTEND_FAULTS="$fault" CEXTEND_FAULTS_SEED=$seed \
         run --stream-out=cur.stream --manifest=cur.manifest --shards=64 \
             --max-attempts=1 > /dev/null 2>&1; then
      interrupted=1
      break
    fi
  done
  if [ "$interrupted" -ne 1 ]; then
    echo "ERROR: $fault never interrupted the run" >&2
    exit 1
  fi
  echo "== interrupted by $fault (fault seed $seed); resuming =="
  run --stream-out=cur.stream --manifest=cur.manifest --resume --shards=64 \
      --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null
  compare "$fault"
done

# ---- Leg 2: a real SIGKILL mid-stream. Tight admission (one resident shard,
# many shards) slows retirement enough to kill the process while the manifest
# is growing; resume must still converge to the reference bytes. Killing
# leaves whatever the kernel got -- possibly a torn tail -- which is exactly
# the crash window the manifest protocol covers.
killed=0
for attempt in 1 2 3 4 5 6 7 8 9 10; do
  rm -f cur.stream cur.manifest cur_r1.csv cur_r2.csv
  run --stream-out=cur.stream --manifest=cur.manifest --shards=256 \
      --max-resident-shards=1 --threads=1 \
      --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null 2>&1 &
  pid=$!
  # Kill as soon as the manifest shows committed shard records (file header
  # is 24 bytes; any growth past ~100 bytes means shards are retiring).
  for i in $(seq 1 400); do
    size=$(stat -c%s cur.manifest 2>/dev/null || echo 0)
    if [ "$size" -gt 100 ]; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.005
  done
  if kill -KILL "$pid" 2>/dev/null; then
    wait "$pid" 2>/dev/null || true
    size=$(stat -c%s cur.manifest 2>/dev/null || echo 0)
    if [ "$size" -gt 100 ]; then
      killed=1
      echo "== SIGKILL delivered mid-stream (manifest ${size}B, attempt $attempt) =="
      break
    fi
    # Killed too early to commit anything interesting; try again.
  else
    wait "$pid" 2>/dev/null || true
    # Finished before we could kill it; shrink the window and retry.
  fi
done
if [ "$killed" -ne 1 ]; then
  echo "ERROR: never caught the run mid-stream with SIGKILL" >&2
  exit 1
fi
rm -f cur_r1.csv cur_r2.csv
run --stream-out=cur.stream --manifest=cur.manifest --resume --shards=256 \
    --max-resident-shards=1 --threads=1 \
    --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null
compare "SIGKILL"

# ---- Leg 3: resuming a finished run is a no-op that still rebuilds CSVs. ----
rm -f cur_r1.csv cur_r2.csv
run --stream-out=cur.stream --manifest=cur.manifest --resume --shards=256 \
    --max-resident-shards=1 \
    --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null
compare "finished-run resume"

# ---- Leg 4: the CLI's own retry loop. A low-rate manifest.commit fault fails
# some attempt mid-stream; with the default --max-attempts the CLI retries
# with the same options, resumes from the durable prefix, and must exit 0
# with the reference bytes. Seeds are scanned until one fails an attempt.
retried=0
for seed in $(seq 1 16); do
  rm -f cur.stream cur.manifest cur_r1.csv cur_r2.csv
  if CEXTEND_FAULTS="manifest.commit=0.02" CEXTEND_FAULTS_SEED=$seed \
       run --stream-out=cur.stream --manifest=cur.manifest --shards=64 \
           --out-r1=cur_r1.csv --out-r2=cur_r2.csv > /dev/null 2> retry.err &&
     grep -q "retrying" retry.err; then
    retried=1
    break
  fi
done
if [ "$retried" -ne 1 ]; then
  echo "ERROR: no fault seed made the CLI retry and then succeed" >&2
  exit 1
fi
echo "== fault seed $seed: $(grep -c retrying retry.err) retry(s), exit 0 =="
compare "CLI retry loop"

echo "== kill/resume test PASSED =="
