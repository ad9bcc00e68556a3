#!/usr/bin/env bash
# smoke-mesh.sh: boot a real 3-node recmem-node mesh on localhost, drive it
# through the binary remote client (write / read / crash / recover / a
# pipelined bench), run a VERIFIED torture round (recording clients, merged
# per-client histories model-checked — docs/adr/0004), run multi-round
# KILL-RESTART torture on wal disks, in which recmem-torture SIGKILLs and
# restarts real
# node processes mid-run (docs/adr/0005), infers the restarts from the
# incarnation epochs on the replies (docs/adr/0006) and still verifies the
# merged history against TRANSIENT atomicity, prove the checker has teeth
# against a mesh with a stale-serving node AND one with a frozen incarnation
# epoch. (The examples run as tests under `go test ./...`.) This is the CI
# proof that the same Client API the simulator serves works — and is verifiably correct — against a live TCP
# deployment that really dies and really recovers.
#
# recmem-node runs one-round reads (docs/adr/0015), and the verified mesh's
# shutdown banners must show both read paths taken: the agreeing majority's
# one round and the two-round fallback a read racing a write takes.
#
# SMOKE_VERIFY_ONLY=1 skips the client-CLI exercises and the kill round and
# runs only the verification half (make verify-mesh).
# SMOKE_KILL_ONLY=1 runs only the kill-restart round (make kill-mesh).
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=${SMOKE_BASE_PORT:-7610}
P0=$((BASE)) P1=$((BASE + 1)) P2=$((BASE + 2))
C0=$((BASE + 10)) C1=$((BASE + 11)) C2=$((BASE + 12))
# Second mesh for the dishonest-node control.
S0=$((BASE + 20)) S1=$((BASE + 21)) S2=$((BASE + 22))
D0=$((BASE + 30)) D1=$((BASE + 31)) D2=$((BASE + 32))
# Third mesh — spawned and owned by recmem-torture — for the kill round.
K0=$((BASE + 40)) K1=$((BASE + 41)) K2=$((BASE + 42))
KC0=$((BASE + 50)) KC1=$((BASE + 51)) KC2=$((BASE + 52))
# Fourth mesh for the frozen-epoch dishonest-node control.
F0=$((BASE + 60)) F1=$((BASE + 61)) F2=$((BASE + 62))
E0=$((BASE + 70)) E1=$((BASE + 71)) E2=$((BASE + 72))
WORK=$(mktemp -d)
BIN="$WORK/bin"
mkdir -p "$BIN"

pids=()
cleanup() {
    kill "${pids[@]}" 2>/dev/null || true
    wait "${pids[@]}" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$BIN" ./cmd/recmem-node ./cmd/recmem-client ./cmd/recmem-torture

# kill_round: the process-death acceptance scenario. recmem-torture spawns
# its own 3-node transient-algorithm mesh on wal disks, drives the verified
# workload over TWO rounds through run-lifetime clients, SIGKILLs node
# processes mid-run and re-execs them (each restart runs the recovery procedure from
# its stable store before reopening the control port, minting a fresh
# incarnation epoch — docs/adr/0006), and the merged recorded history —
# spanning real process death, with the restarts inferred from the epoch
# stamps on the replies — must pass the TRANSIENT atomicity checker. One
# recording group spans both rounds, and round 2 verifies the whole run so
# far, so its reads are checked against round 1's writes, not an amnesiac
# blank slate. The reconnect layer in the remote client is what lets the
# same client handles ride the outage: ErrCrashed/ErrDown during it, plain
# successes after, no re-dial in the scenario code.
kill_round() {
    local disk=wal
    echo "== KILL-RESTART rounds: SIGKILL + re-exec real node processes mid-run, verified (transient, $disk disks, 10k-register namespace)"
    local kpeers="127.0.0.1:$K0,127.0.0.1:$K1,127.0.0.1:$K2"
    local kcmd=""
    for i in 0 1 2; do
        local ctrl_var="KC$i"
        local cmd="$BIN/recmem-node -id $i -peers $kpeers -control 127.0.0.1:${!ctrl_var} -dir $WORK/k$disk$i -disk $disk -algorithm transient -retransmit 20ms"
        if [ -z "$kcmd" ]; then kcmd="$cmd"; else kcmd="$kcmd;;$cmd"; fi
    done
    # -populate 10000: every node adopts a 10k-register namespace before the
    # first SIGKILL, so the restarts' readiness probes double as a lazy-
    # recovery check — an eager restart would reload the whole namespace
    # before reopening its control port (docs/adr/0009).
    "$BIN/recmem-torture" -remote "127.0.0.1:$KC0,127.0.0.1:$KC1,127.0.0.1:$KC2" \
        -ops 120 -rounds 2 -async 8 -faults 600ms -seed 11 -verify -populate 10000 \
        -kill "$kcmd" -kill-cycles 2 -kill-delay 150ms -kill-down 150ms
}

if [ "${SMOKE_KILL_ONLY:-0}" = "1" ]; then
    kill_round
    echo "mesh kill-restart: OK"
    exit 0
fi

# start_node <mesh-name> <id> <peer-list> <control-addr> [extra flags...]
start_node() {
    local name=$1 id=$2 peerlist=$3 ctrl=$4
    shift 4
    "$BIN/recmem-node" -id "$id" -peers "$peerlist" \
        -control "$ctrl" -dir "$WORK/$name$id" -disk wal \
        -retransmit 20ms "$@" >"$WORK/$name$id.log" 2>&1 &
    pids+=($!)
}

client() { "$BIN/recmem-client" -node "127.0.0.1:$1" -timeout 30s "${@:2}"; }

wait_ports() {
    for port in "$@"; do
        for attempt in $(seq 1 50); do
            if client "$port" ping >/dev/null 2>&1; then break; fi
            if [ "$attempt" -eq 50 ]; then
                echo "node on port $port never became reachable" >&2
                cat "$WORK"/*.log >&2
                exit 1
            fi
            sleep 0.2
        done
    done
}

echo "== start 3-node mesh (persistent algorithm, wal disks)"
PEERS="127.0.0.1:$P0,127.0.0.1:$P1,127.0.0.1:$P2"
for i in 0 1 2; do
    ctrl_var="C$i"
    start_node n "$i" "$PEERS" "127.0.0.1:${!ctrl_var}"
done

echo "== wait for the control ports"
wait_ports "$C0" "$C1" "$C2"

if [ "${SMOKE_VERIFY_ONLY:-0}" != "1" ]; then
    echo "== info"
    client "$C0" info

    echo "== write at node 0, read at nodes 1 and 2"
    client "$C0" write x hello-mesh
    test "$(client "$C1" read x)" = "hello-mesh"
    test "$(client "$C2" read x)" = "hello-mesh"

    echo "== crash node 1, mesh keeps serving, node 1 refuses ops"
    client "$C1" crash
    if client "$C1" read x >/dev/null 2>&1; then
        echo "read on a crashed node exited zero" >&2
        exit 1
    fi
    client "$C0" write x while-down
    test "$(client "$C2" read x)" = "while-down"

    echo "== recover node 1, it catches up"
    client "$C1" recover
    test "$(client "$C1" read x)" = "while-down"

    echo "== pipelined bench through one connection (batching engine over TCP)"
    client "$C0" bench 100 32
fi

echo "== VERIFIED torture round against the live mesh (crash/recover + model check)"
"$BIN/recmem-torture" -remote "127.0.0.1:$C0,127.0.0.1:$C1,127.0.0.1:$C2" \
    -ops 30 -rounds 1 -async 8 -faults 500ms -seed 7 -verify

echo "== VERIFIED contended round: every client reads and writes ONE register, so reads race writes"
"$BIN/recmem-torture" -remote "127.0.0.1:$C0,127.0.0.1:$C1,127.0.0.1:$C2" \
    -ops 60 -rounds 1 -registers 1 -reads 0.5 -async 64 -faults 300ms -seed 8 -verify

echo "== the verified mesh's shutdown banners: which read path its reads took"
# SIGTERM the three nodes; ONE and TWO are the mesh-wide counts of read
# executions that returned after one round and that ran the write-back.
kill "${pids[@]:0:3}" 2>/dev/null || true
wait "${pids[@]:0:3}" 2>/dev/null || true
ONE=0 TWO=0
for i in 0 1 2; do
    banner=$(grep -h "one-round-reads=" "$WORK/n$i.log") || {
        echo "node n$i shut down without its read-rounds banner" >&2
        cat "$WORK/n$i.log" >&2
        exit 1
    }
    echo "   $banner"
    ONE=$((ONE + $(echo "$banner" | sed -E 's/.* one-round-reads=([0-9]+).*/\1/')))
    TWO=$((TWO + $(echo "$banner" | sed -E 's/.* two-round-reads=([0-9]+).*/\1/')))
done
# Reads racing writes fall back to the write-back only when a read's two
# first acks straddle a write — a handful per round on loopback, sometimes
# none. The certain one is the CLI half's read at the just-recovered node 1,
# whose own stale ack is one of the two: without that half only the one-round
# path is required.
if [ "$ONE" -eq 0 ] || { [ "$TWO" -eq 0 ] && [ "${SMOKE_VERIFY_ONLY:-0}" != "1" ]; }; then
    echo "verified mesh took $ONE one-round and $TWO two-round reads; want both paths" >&2
    exit 1
fi
echo "   one-round hit rate: $ONE of $((ONE + TWO)) read executions"

if [ "${SMOKE_VERIFY_ONLY:-0}" != "1" ]; then
    kill_round
fi

echo "== start a second mesh whose node 1 serves stale reads (-stale-reads)"
SPEERS="127.0.0.1:$S0,127.0.0.1:$S1,127.0.0.1:$S2"
for i in 0 1 2; do
    ctrl_var="D$i"
    extra=""
    if [ "$i" -eq 1 ]; then extra="-stale-reads"; fi
    # shellcheck disable=SC2086 — $extra is intentionally word-split (and
    # an empty array would trip `set -u` on bash 3.2).
    start_node s "$i" "$SPEERS" "127.0.0.1:${!ctrl_var}" $extra
done
wait_ports "$D0" "$D1" "$D2"

echo "== the verified torture round must FAIL against the dishonest mesh"
if "$BIN/recmem-torture" -remote "127.0.0.1:$D0,127.0.0.1:$D1,127.0.0.1:$D2" \
    -ops 20 -rounds 1 -faults 0s -seed 7 -verify >"$WORK/stale.out" 2>&1; then
    echo "stale-serving mesh PASSED verification — the checker has no teeth" >&2
    cat "$WORK/stale.out" >&2
    exit 1
fi
if ! grep -q "violation" "$WORK/stale.out"; then
    echo "stale mesh failed for the wrong reason:" >&2
    cat "$WORK/stale.out" >&2
    exit 1
fi
echo "   caught: $(grep -m1 -o 'violation on register[^]]*' "$WORK/stale.out" | head -c 100)"

echo "== start a third mesh whose node 1 freezes its incarnation epoch (-freeze-epoch)"
FPEERS="127.0.0.1:$F0,127.0.0.1:$F1,127.0.0.1:$F2"
for i in 0 1 2; do
    ctrl_var="E$i"
    extra=""
    if [ "$i" -eq 1 ]; then extra="-freeze-epoch"; fi
    # shellcheck disable=SC2086
    start_node f "$i" "$FPEERS" "127.0.0.1:${!ctrl_var}" $extra
done
wait_ports "$E0" "$E1" "$E2"

echo "== a verified round with crash injection must FAIL against the frozen-epoch mesh"
if "$BIN/recmem-torture" -remote "127.0.0.1:$E0,127.0.0.1:$E1,127.0.0.1:$E2" \
    -ops 30 -rounds 1 -faults 500ms -seed 7 -verify >"$WORK/frozen.out" 2>&1; then
    echo "frozen-epoch mesh PASSED verification — the epoch inference has no teeth" >&2
    cat "$WORK/frozen.out" >&2
    exit 1
fi
if ! grep -q "violation" "$WORK/frozen.out"; then
    echo "frozen-epoch mesh failed for the wrong reason:" >&2
    cat "$WORK/frozen.out" >&2
    exit 1
fi
echo "   caught: $(grep -m1 -o 'epoch violation[^—]*' "$WORK/frozen.out" | head -c 100)"

echo "mesh smoke: OK"
