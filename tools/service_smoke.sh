#!/usr/bin/env bash
# Service smoke for CI: a scripted client session against a live oms_serve
# daemon. Phase 1 partitions a generated ring on startup and serves a Unix
# socket; the python client checks WHERE/BATCH/STATS answers, an
# out-of-range id (typed kOutOfRange reply), a deliberately malformed frame
# (typed kBadFrame reply — the daemon must keep serving afterwards), asks for
# METRICS mid-session (per-opcode counters and a populated request-latency
# histogram), sends one frame split over three writes and two frames in one
# write (each answered in order), takes a SNAPSHOT and a second one onto the same path (which must
# replace the file by rename, not rewrite it in place, and leave no
# snapshot.part.tmp behind), and sends SHUTDOWN; the daemon must then exit
# 0 on its own. Phase 2 restarts from the overwritten snapshot over the
# stdin/stdout transport and must answer the same WHERE queries identically,
# with METRICS served on that transport too.
# Phase 3 exercises the graceful drain: SIGTERM must answer the in-flight
# request, refuse new work with a typed kShuttingDown, and exit 0. Phase 4
# exercises admission control: with --max-conns 2 a third concurrent
# connection gets a typed kOverloaded verdict and the daemon keeps serving.
# Usage: service_smoke.sh <path-to-oms_serve>
set -u

serve="$1"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

graph="$tmpdir/ring.graph"
awk 'BEGIN {
  n = 2000;
  printf "%d %d\n", n, n;
  for (i = 1; i <= n; i++) {
    l = i - 1; if (l < 1) l = n;
    r = i + 1; if (r > n) r = 1;
    printf "%d %d\n", l, r;
  }
}' > "$graph"

socket="$tmpdir/oms.sock"
snapshot="$tmpdir/snapshot.part"
failures=0

"$serve" "$graph" --k 8 --socket "$socket" 2> "$tmpdir/serve.log" &
serve_pid=$!

python3 - "$socket" "$snapshot" > "$tmpdir/socket_answers.txt" <<'EOF'
import json, os, socket, struct, sys, time

sock_path, snap_path = sys.argv[1], sys.argv[2]
OK, BAD_FRAME, OUT_OF_RANGE = 0, 1, 3

s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
for _ in range(400):  # the daemon partitions the graph before it listens
    try:
        s.connect(sock_path)
        break
    except OSError:
        time.sleep(0.05)
else:
    sys.exit("could not connect to " + sock_path)

def send_raw(body):
    s.sendall(struct.pack("<I", len(body)) + body)

def read_exactly(n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            sys.exit("server hung up mid-reply")
        buf += chunk
    return buf

def read_reply():
    (length,) = struct.unpack("<I", read_exactly(4))
    reply = read_exactly(length)
    return struct.unpack("<I", reply[:4])[0], reply[4:]

def roundtrip(body):
    send_raw(body)
    return read_reply()

def expect(label, got, want):
    if got != want:
        sys.exit(f"{label}: got {got}, want {want}")

# WHERE for the first ten items: record the blocks for the restore phase.
blocks = []
for v in range(10):
    status, payload = roundtrip(struct.pack("<IQ", 1, v))
    expect(f"WHERE {v} status", status, OK)
    blocks.append(struct.unpack("<I", payload)[0])
print(" ".join(str(b) for b in blocks))

# Out-of-range id: a typed error reply, not a dropped connection.
status, _ = roundtrip(struct.pack("<IQ", 1, 1 << 60))
expect("WHERE out-of-range status", status, OUT_OF_RANGE)

# A malformed frame (one stray byte): kBadFrame, and the session survives.
status, _ = roundtrip(b"\x01")
expect("malformed frame status", status, BAD_FRAME)

# BATCH over the same ids must agree with the scalar answers.
status, payload = roundtrip(struct.pack("<II", 3, 10) +
                            b"".join(struct.pack("<Q", v) for v in range(10)))
expect("BATCH status", status, OK)
count = struct.unpack("<I", payload[:4])[0]
expect("BATCH count", count, 10)
batch = list(struct.unpack("<10I", payload[4:44]))
expect("BATCH blocks", batch, blocks)

# STATS: k and the request counter (everything above, this one included).
status, payload = roundtrip(struct.pack("<I", 4))
expect("STATS status", status, OK)
_, k, items = struct.unpack("<IIQ", payload[:16])
expect("STATS k", k, 8)
expect("STATS items", items, 2000)
requests = struct.unpack("<Q", payload[32:40])[0]
expect("STATS requests served", requests, 14)

# METRICS mid-session: the live telemetry registry over the wire. Every
# request above is visible in the per-opcode counters (WHERE = 10 answered +
# 1 out-of-range; the malformed frame lands in .invalid) and in a non-empty
# request-latency histogram. The METRICS request counts itself.
status, payload = roundtrip(struct.pack("<I", 7))
expect("METRICS status", status, OK)
(jlen,) = struct.unpack_from("<I", payload, 0)
metrics = json.loads(payload[4:4 + jlen].decode())
expect("METRICS schema", metrics["schema"], "oms.metrics.v1")
counters = metrics["counters"]
expect("METRICS service.req.where", counters["service.req.where"], 11)
expect("METRICS service.req.batch", counters["service.req.batch"], 1)
expect("METRICS service.req.stats", counters["service.req.stats"], 1)
expect("METRICS service.req.metrics", counters["service.req.metrics"], 1)
if counters["service.req.invalid"] < 1:
    sys.exit("METRICS: the malformed frame was not counted as invalid")
hist = metrics["histograms"]["service.request_ns"]
if hist["count"] < 14 or sum(hist["buckets"]) != hist["count"]:
    sys.exit(f"METRICS: implausible request latency histogram: {hist}")

# Raw framing: one frame split over three writes, then two frames in one
# write. Each must be answered whole and in order, however the daemon's
# receives split or join the bytes.
def where_frame(v):
    body = struct.pack("<IQ", 1, v)
    return struct.pack("<I", len(body)) + body

split = where_frame(4)
for piece in (split[:2], split[2:7], split[7:]):
    s.sendall(piece)
    time.sleep(0.02)
status, payload = read_reply()
expect("split WHERE 4 status", status, OK)
expect("split WHERE 4 block", struct.unpack("<I", payload)[0], blocks[4])
s.sendall(where_frame(5) + where_frame(6))
for v in (5, 6):
    status, payload = read_reply()
    expect(f"joined WHERE {v} status", status, OK)
    expect(f"joined WHERE {v} block", struct.unpack("<I", payload)[0], blocks[v])

# SNAPSHOT, a second SNAPSHOT onto the same path, then a clean SHUTDOWN ack.
# The second one must swap in a new file (tmp + rename: a new inode), so a
# write that failed midway could never have destroyed the first.
path = snap_path.encode()
status, _ = roundtrip(struct.pack("<II", 5, len(path)) + path)
expect("SNAPSHOT status", status, OK)
first_inode = os.stat(snap_path).st_ino
status, _ = roundtrip(struct.pack("<II", 5, len(path)) + path)
expect("second SNAPSHOT status", status, OK)
if os.stat(snap_path).st_ino == first_inode:
    sys.exit("second SNAPSHOT rewrote the artifact in place instead of replacing it")
status, _ = roundtrip(struct.pack("<I", 6))
expect("SHUTDOWN status", status, OK)
s.close()
EOF
client_rc=$?
if [ "$client_rc" -ne 0 ]; then
  echo "FAIL: scripted socket session"
  sed 's/^/  serve: /' "$tmpdir/serve.log"
  kill "$serve_pid" 2> /dev/null
  failures=$((failures + 1))
fi

wait "$serve_pid"
serve_rc=$?
if [ "$client_rc" -eq 0 ]; then
  if [ "$serve_rc" -ne 0 ]; then
    echo "FAIL: daemon exited $serve_rc after SHUTDOWN (want 0)"
    sed 's/^/  serve: /' "$tmpdir/serve.log"
    failures=$((failures + 1))
  else
    echo "ok   [socket session: lookups, typed errors, live metrics, split and joined frames, snapshot, shutdown]"
  fi
fi
if [ -e "$snapshot.tmp" ]; then
  echo "FAIL: SNAPSHOT left $snapshot.tmp behind"
  failures=$((failures + 1))
else
  echo "ok   [two SNAPSHOTs onto one path: replaced by rename, no temp file left]"
fi

# Phase 2: restore from the overwritten snapshot over stdin/stdout and re-ask
# the same WHERE queries; the answers must be bit-identical to the live
# daemon's.
python3 - <<'EOF' > "$tmpdir/requests.bin"
import struct, sys
out = b""
for v in range(10):
    body = struct.pack("<IQ", 1, v)
    out += struct.pack("<I", len(body)) + body
body = struct.pack("<I", 7)  # METRICS (stdio transport serves it too)
out += struct.pack("<I", len(body)) + body
body = struct.pack("<I", 6)  # SHUTDOWN
out += struct.pack("<I", len(body)) + body
sys.stdout.buffer.write(out)
EOF

if "$serve" --artifact "$snapshot" < "$tmpdir/requests.bin" \
     > "$tmpdir/replies.bin" 2>> "$tmpdir/serve.log"; then
  python3 - "$tmpdir/replies.bin" <<'EOF' > "$tmpdir/restored_answers.txt"
import json, struct, sys
data = open(sys.argv[1], "rb").read()
blocks, off, saw_metrics = [], 0, False
while off < len(data):
    (length,) = struct.unpack_from("<I", data, off)
    off += 4
    reply = data[off:off + length]
    off += length
    status = struct.unpack_from("<I", reply, 0)[0]
    if status != 0:
        sys.exit(f"restored daemon replied status {status}")
    if len(reply) == 8:  # WHERE replies carry a block; the SHUTDOWN ack is bare
        blocks.append(struct.unpack_from("<I", reply, 4)[0])
    elif len(reply) > 8:  # the METRICS reply: status + string json
        (jlen,) = struct.unpack_from("<I", reply, 4)
        metrics = json.loads(reply[8:8 + jlen].decode())
        if metrics["schema"] != "oms.metrics.v1":
            sys.exit("restored METRICS: wrong schema " + metrics["schema"])
        if metrics["counters"]["service.req.where"] != 10:
            sys.exit("restored METRICS: WHERE count != 10")
        saw_metrics = True
if not saw_metrics:
    sys.exit("restored session never answered METRICS")
print(" ".join(str(b) for b in blocks))
EOF
  if cmp -s <(head -n 1 "$tmpdir/socket_answers.txt") "$tmpdir/restored_answers.txt"; then
    echo "ok   [snapshot restore answers bit-identical over stdio]"
  else
    echo "FAIL: restored answers differ from the live daemon's"
    failures=$((failures + 1))
  fi
else
  echo "FAIL: oms_serve --artifact session exited non-zero"
  failures=$((failures + 1))
fi

# Phase 3: graceful drain. SIGTERM while one request is in flight must
# answer it, hand every other session (established or new) a typed
# kShuttingDown verdict, and exit 0.
socket3="$tmpdir/oms_drain.sock"
"$serve" "$graph" --k 8 --socket "$socket3" 2> "$tmpdir/serve_drain.log" &
drain_pid=$!

python3 - "$socket3" "$drain_pid" <<'EOF'
import os, signal, socket, struct, sys, time

sock_path, pid = sys.argv[1], int(sys.argv[2])
OK, SHUTTING_DOWN = 0, 7

def connect():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    for _ in range(400):  # the daemon partitions the graph before it listens
        try:
            s.connect(sock_path)
            return s
        except OSError:
            time.sleep(0.05)
    sys.exit("could not connect to " + sock_path)

def read_frame(s):
    buf = b""
    while len(buf) < 4:
        chunk = s.recv(4 - len(buf))
        if not chunk:
            return None  # clean close
        buf += chunk
    (length,) = struct.unpack("<I", buf)
    reply = b""
    while len(reply) < length:
        chunk = s.recv(length - len(reply))
        if not chunk:
            sys.exit("server hung up mid-reply")
        reply += chunk
    return struct.unpack("<I", reply[:4])[0]

idle = connect()
idle.sendall(struct.pack("<I", 12) + struct.pack("<IQ", 1, 3))
if read_frame(idle) != OK:
    sys.exit("pre-drain WHERE failed")

# Park a frame in flight: the full prefix plus 4 of 12 body bytes, then a
# stall — that session must be answered, not cut off, by the drain.
inflight = connect()
body = struct.pack("<IQ", 1, 7)
inflight.sendall(struct.pack("<I", len(body)) + body[:4])
time.sleep(0.3)  # let its worker start reading the body

os.kill(pid, signal.SIGTERM)

# The idle session gets one unsolicited kShuttingDown, then EOF.
if read_frame(idle) != SHUTTING_DOWN:
    sys.exit("idle session did not get the kShuttingDown verdict")
if read_frame(idle) is not None:
    sys.exit("idle session not closed after the drain verdict")
idle.close()

# A new connection during the drain is refused with the same typed verdict.
late = connect()
if read_frame(late) != SHUTTING_DOWN:
    sys.exit("late connection did not get the kShuttingDown verdict")
late.close()

# The in-flight frame is finished and answered before its session drains.
inflight.sendall(body[4:])
if read_frame(inflight) != OK:
    sys.exit("in-flight request was not answered during the drain")
if read_frame(inflight) != SHUTTING_DOWN:
    sys.exit("in-flight session did not drain after its answer")
inflight.close()
EOF
drain_client_rc=$?
if [ "$drain_client_rc" -ne 0 ]; then
  kill "$drain_pid" 2> /dev/null
fi
wait "$drain_pid"
drain_rc=$?
if [ "$drain_client_rc" -ne 0 ] || [ "$drain_rc" -ne 0 ]; then
  echo "FAIL: graceful drain (client rc $drain_client_rc, daemon rc $drain_rc, want 0)"
  sed 's/^/  serve: /' "$tmpdir/serve_drain.log"
  failures=$((failures + 1))
elif ! grep -q "drained" "$tmpdir/serve_drain.log"; then
  echo "FAIL: daemon log does not report a drain"
  sed 's/^/  serve: /' "$tmpdir/serve_drain.log"
  failures=$((failures + 1))
else
  echo "ok   [SIGTERM drain: in-flight answered, new work refused kShuttingDown, exit 0]"
fi

# Phase 4: admission control. With --max-conns 2 a third concurrent
# connection is shed with a typed kOverloaded verdict; freed slots readmit.
socket4="$tmpdir/oms_overload.sock"
"$serve" "$graph" --k 8 --socket "$socket4" --max-conns 2 \
  2> "$tmpdir/serve_overload.log" &
overload_pid=$!

python3 - "$socket4" <<'EOF'
import socket, struct, sys, time

sock_path = sys.argv[1]
OK, OVERLOADED = 0, 6

def connect():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    for _ in range(400):
        try:
            s.connect(sock_path)
            return s
        except OSError:
            time.sleep(0.05)
    sys.exit("could not connect to " + sock_path)

def read_frame(s):
    buf = b""
    while len(buf) < 4:
        chunk = s.recv(4 - len(buf))
        if not chunk:
            return None
        buf += chunk
    (length,) = struct.unpack("<I", buf)
    reply = b""
    while len(reply) < length:
        chunk = s.recv(length - len(reply))
        if not chunk:
            sys.exit("server hung up mid-reply")
        reply += chunk
    return struct.unpack("<I", reply[:4])[0]

# Two holders fill both slots; a round trip each proves their workers are
# live, not merely queued in the listen backlog.
holders = []
for _ in range(2):
    s = connect()
    s.sendall(struct.pack("<I", 12) + struct.pack("<IQ", 1, 1))
    if read_frame(s) != OK:
        sys.exit("holder WHERE failed")
    holders.append(s)

# The third connection gets one unsolicited kOverloaded verdict, then EOF.
third = connect()
if read_frame(third) != OVERLOADED:
    sys.exit("third connection did not get the kOverloaded verdict")
if read_frame(third) is not None:
    sys.exit("shed connection not closed after the verdict")
third.close()
for s in holders:
    s.close()

# Freed slots readmit: shut down cleanly, retrying while the reaper catches
# up with the just-closed holders. A retry can itself be shed (verdict then
# close, racing our send into EPIPE) — that just means "not yet".
for _ in range(100):
    s = connect()
    try:
        s.sendall(struct.pack("<I", 4) + struct.pack("<I", 6))
        verdict = read_frame(s)
    except OSError:
        verdict = None
    s.close()
    if verdict == OK:
        sys.exit(0)
    time.sleep(0.05)
sys.exit("could not shut the daemon down after the overload check")
EOF
overload_client_rc=$?
if [ "$overload_client_rc" -ne 0 ]; then
  kill "$overload_pid" 2> /dev/null
fi
wait "$overload_pid"
overload_rc=$?
if [ "$overload_client_rc" -ne 0 ] || [ "$overload_rc" -ne 0 ]; then
  echo "FAIL: overload shedding (client rc $overload_client_rc, daemon rc $overload_rc, want 0)"
  sed 's/^/  serve: /' "$tmpdir/serve_overload.log"
  failures=$((failures + 1))
else
  echo "ok   [--max-conns 2: third connection shed kOverloaded, freed slots readmit]"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures service smoke failure(s)"
  exit 1
fi
echo "service smoke passed"
