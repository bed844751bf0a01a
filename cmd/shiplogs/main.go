// Command shiplogs is the remote log agent (§II): it reads log lines from
// a file or stdin and ships them over the netbus protocol to a broker
// (`loglens broker`) or to a single-process service (`loglens -listen`),
// which serves the same protocol over its own bus:
//
//	shiplogs -bus broker-host:7070 -source web-1 -file access.log
//	tail -f app.log | shiplogs -bus :5044 -source app
//
// Every line goes through a bounded CRC-framed disk spool first, so
// outages shorter than the spool cap lose nothing, and carries a
// per-source seq the broker dedups on, so re-sends after a lost ack or a
// restart append nothing twice.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"loglens/internal/agent"
	"loglens/internal/clock"
	"loglens/internal/fsx"
	"loglens/internal/netbus"
)

func main() {
	busAddr := flag.String("bus", "", "address to publish through: a loglens broker, or a loglens -listen service (required)")
	source := flag.String("source", "", "log source name (required)")
	file := flag.String("file", "-", "log file to ship ('-' for stdin)")
	rate := flag.Int("rate", 0, "ship rate in logs/sec (0 = unthrottled)")
	spoolDir := flag.String("spool-dir", "", "directory for the disk spool (default: os temp dir)")
	spoolMax := flag.Int64("spool-max-bytes", netbus.DefaultSpoolMaxBytes, "spool capacity; oldest lines shed beyond this")
	flag.Parse()

	if err := run(*busAddr, *source, *file, *rate, *spoolDir, *spoolMax); err != nil {
		fmt.Fprintln(os.Stderr, "shiplogs:", err)
		os.Exit(1)
	}
}

// run ships through a netbus server: every line lands in the disk spool
// first, the publisher drains it to the server in order, and the
// (source, seq) identity makes replays after a crash or reconnect
// idempotent on the server side.
func run(busAddr, source, file string, rate int, spoolDir string, spoolMax int64) error {
	if busAddr == "" || source == "" {
		return fmt.Errorf("-bus and -source are required")
	}
	in := os.Stdin
	if file != "-" {
		f, err := os.Open(file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	if spoolDir == "" {
		spoolDir = os.TempDir()
	}
	spoolPath := filepath.Join(spoolDir, "shiplogs-"+source+".spool")
	spool, err := netbus.OpenSpool(netbus.SpoolOptions{
		FS:       fsx.OS{},
		Path:     spoolPath,
		MaxBytes: spoolMax,
	})
	if err != nil {
		return fmt.Errorf("open spool %s: %w", spoolPath, err)
	}

	// The broker dedups on (source, seq) with a max-based high-water
	// mark, so a restarted agent that counted from 1 again would have
	// every fresh line silently swallowed as a replay. The seq file
	// persists the counter across incarnations (block-reserved, so a
	// crash skips numbers but never reuses them).
	seqFile, err := netbus.OpenSeqFile(fsx.OS{}, spoolPath+".seq", 0)
	if err != nil {
		return fmt.Errorf("open seq file: %w", err)
	}

	client := netbus.Dial(busAddr, netbus.Options{Clock: clock.New(), Role: "agent"})
	defer client.Close()
	pub := netbus.NewPublisher(client, agent.LogsTopic, spool)
	defer pub.Close()

	var limiter *time.Ticker
	if rate > 0 {
		limiter = time.NewTicker(time.Second / time.Duration(rate))
		defer limiter.Stop()
	}

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 64*1024), netbus.MaxPayloadBytes)
	var n, lineNo uint64
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if line == "" {
			continue
		}
		if limiter != nil {
			<-limiter.C
		}
		seq, err := seqFile.Next()
		if err != nil {
			return fmt.Errorf("reserve seq: %w", err)
		}
		if err := pub.Send(source, seq, line); err != nil {
			return fmt.Errorf("%s line %d: spool %s: %w", file, lineNo, spoolPath, err)
		}
		n++
	}
	if err := scanner.Err(); err != nil {
		return fmt.Errorf("%s line %d: %w", file, lineNo+1, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := pub.Drain(ctx); err != nil {
		return fmt.Errorf("drain spool (%d lines still queued): %w", spool.Len(), err)
	}
	fmt.Fprintf(os.Stderr, "shipped %d logs from %s as source %q via %s (%d shed)\n",
		n, file, source, busAddr, spool.Shed())
	return nil
}
