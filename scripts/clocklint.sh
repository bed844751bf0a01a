#!/bin/sh
# clocklint: forbid raw wall-clock reads outside the injectable clock.
#
# Every runtime component must take its time from internal/clock so the
# paper's temporal guarantees (heartbeat expiry, rebroadcast barriers,
# batch cadence) stay drivable by clock.Fake in tests. A raw time.Now()
# or time.Since() in product code silently breaks that determinism, so
# this grep gate fails CI when one appears outside the allowlist.
#
# Allowlist rationale:
#   internal/clock/        the Real clock is the one legitimate caller
#   internal/testutil/wait.go  WaitUntil's failure deadline is real: it
#                          must elapse even when fake time stands still
#   (internal/core needs no entry: Drain's and the checkpoint barrier's
#   real deadlines are context timeouts, and both wait on the log
#   manager's progress notification instead of polling)
#   internal/netbus/       socket Set{Read,Write}Deadline needs absolute
#                          wall-clock times; all retry/backoff pacing in
#                          the package still runs on the injected clock
#   examples/datacenter/   demo binary, wall-clock phase timing only
#
# Raw waits — time.Sleep, time.After, time.NewTicker, time.Tick — are
# the second half of the gate: a component that sleeps or ticks on the
# wall clock stalls under clock.Fake and spins a CPU below saturation,
# so waits park on the injected clock or on a notification instead. Each
# remaining site is listed in wait_allowlist with its reason; the list
# is meant to shrink, not grow:
#   internal/clock/        the Real clock wraps the time package
#   internal/experiments/rebroadcast.go  the rebroadcast experiment waits
#                          for sent records to flow before each swap
#   internal/testutil/     WaitUntil's backoff between condition checks
#   cmd/shiplogs/          the -rate limiter paces a real shipper
#   examples/              demo binaries, wall-clock pauses only
#
# Test files (_test.go) are exempt: tests own their clocks.
set -eu

cd "$(dirname "$0")/.."

allowlist='^internal/clock/|^internal/testutil/wait\.go|^internal/netbus/|^examples/datacenter/'

violations=$(grep -rn --include='*.go' -E 'time\.(Now|Since)\(' \
    internal cmd examples 2>/dev/null \
    | grep -v '_test\.go:' \
    | grep -vE "$allowlist" || true)

if [ -n "$violations" ]; then
    echo "clocklint: raw wall-clock read outside internal/clock (use the injected clock.Clock):" >&2
    echo "$violations" >&2
    exit 1
fi
wait_allowlist='^internal/clock/|^internal/experiments/rebroadcast\.go|^internal/testutil/|^cmd/shiplogs/|^examples/'

waits=$(grep -rn --include='*.go' -E 'time\.(Sleep|After|NewTicker|Tick)\(' \
    internal cmd examples 2>/dev/null \
    | grep -v '_test\.go:' \
    | grep -vE "$wait_allowlist" || true)

if [ -n "$waits" ]; then
    echo "clocklint: raw wait outside the allowlist (park on the injected clock.Clock or a notification):" >&2
    echo "$waits" >&2
    exit 1
fi
echo "clocklint: ok"
