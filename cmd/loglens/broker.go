package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"loglens/internal/bus"
	"loglens/internal/metrics"
	"loglens/internal/netbus"
)

// brokerMain is the `loglens broker` subcommand: a standalone bus node
// serving the netbus RPC protocol. Agents point `shiplogs -bus` at it
// and workers point `loglens -bus` at it, giving the paper's Figure 1
// deployment shape — components communicating through a broker instead
// of an in-process channel.
func brokerMain(args []string) int {
	fs := flag.NewFlagSet("broker", flag.ExitOnError)
	listen := fs.String("listen", ":7070", "TCP address to serve the bus protocol on")
	dumpMetrics := fs.Bool("metrics", false, "dump the metrics registry to stderr on exit")
	fs.Parse(args)

	srv := netbus.NewServer(bus.New())
	reg := metrics.NewRegistry()
	srv.Instrument(reg)

	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loglens broker:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "broker serving on %s (loglens -bus %s / shiplogs -bus %s)\n", addr, addr, addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintln(os.Stderr, "broker draining...")
	srv.Close()
	if *dumpMetrics {
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		reg.Snapshot().WriteText(os.Stderr)
	}
	return 0
}
