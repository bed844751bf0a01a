// Modelupdate: the §V-A zero-downtime model update. A pipeline analyzes a
// live stream while the model manager saves an edited model and the model
// controller announces the update; the streaming engine swaps the model
// between micro-batches (rebroadcast) — no restart, no lost records, no
// lost detector state. The demo deletes one automaton mid-stream (the
// Table V edit) and shows its anomalies stop while the other workflow's
// detection continues uninterrupted.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"loglens/internal/anomaly"
	"loglens/internal/core"
	"loglens/internal/experiments"
	"loglens/internal/logtypes"
	"loglens/internal/modelmgr"
)

func stamp(t time.Time) string { return t.Format("2006/01/02 15:04:05.000") }

func main() {
	base := time.Date(2016, 2, 23, 9, 0, 0, 0, time.UTC)

	// Training: two independent workflows, ping (2 steps) and fetch
	// (2 steps).
	var train []string
	for i := 0; i < 300; i++ {
		t0 := base.Add(time.Duration(i*10) * time.Second)
		pid := fmt.Sprintf("pg-%04d", i)
		fid := fmt.Sprintf("ft-%04d", i)
		train = append(train,
			fmt.Sprintf("%s probe %s sent ttl %d", stamp(t0), pid, 32+i%32),
			fmt.Sprintf("%s probe %s echoed rtt %d ms", stamp(t0.Add(time.Second)), pid, 1+i%20),
			fmt.Sprintf("%s fetch %s started url /obj/%d", stamp(t0.Add(2*time.Second)), fid, i),
			fmt.Sprintf("%s fetch %s finished bytes %d", stamp(t0.Add(3*time.Second)), fid, 100+i),
		)
	}

	p, err := core.New(core.Config{DisableHeartbeat: true})
	if err != nil {
		log.Fatal(err)
	}
	model, report, err := p.Train("v1", experiments.ToLogs("net", train))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model v1: %d patterns, %d automata\n", report.Patterns, report.Automata)

	var probeAnoms, fetchAnoms atomic.Int64
	p.OnAnomaly(func(r anomaly.Record) {
		if len(r.EventID) >= 2 && r.EventID[:2] == "pg" {
			probeAnoms.Add(1)
		} else {
			fetchAnoms.Add(1)
		}
		fmt.Printf("  anomaly [%s] event=%s\n", r.Type, r.EventID)
	})
	if err := p.Start(); err != nil {
		log.Fatal(err)
	}
	ag, err := p.Agent("net", 0)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: one bad trace per workflow -> two anomalies.
	send := func(lines ...string) {
		for _, l := range lines {
			if err := ag.Send(l); err != nil {
				log.Fatal(err)
			}
		}
		if err := p.Drain(time.Minute); err != nil {
			log.Fatal(err)
		}
	}
	t1 := base.Add(2 * time.Hour)
	fmt.Println("\nphase 1: full model v1")
	send(
		fmt.Sprintf("%s probe pg-9000 echoed rtt 5 ms", stamp(t1)),   // missing begin
		fmt.Sprintf("%s fetch ft-9000 finished bytes 10", stamp(t1)), // missing begin
		fmt.Sprintf("%s probe pg-9001 sent ttl 33", stamp(t1)),       // normal pair
		fmt.Sprintf("%s probe pg-9001 echoed rtt 4 ms", stamp(t1.Add(time.Second))),
	)

	// Phase 2: the expert decides probe monitoring is noise. Clone the
	// model, delete the probe automaton, save it, announce the update —
	// while the stream keeps running.
	fmt.Println("\nphase 2: deleting the probe automaton via model manager + controller (stream stays up)")
	v2 := model.Clone()
	v2.ID = "v2"
	probeProbe, err := v2.NewParser(nil).Parse(logtypes.Log{Raw: train[0]})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range v2.Sequence.AutomataFor(probeProbe.PatternID) {
		v2.Sequence.Delete(a.ID)
	}
	if err := p.Manager().Save(v2); err != nil {
		log.Fatal(err)
	}
	if err := p.Controller().Announce(modelmgr.Instruction{Op: modelmgr.OpUpdate, ModelID: "v2"}); err != nil {
		log.Fatal(err)
	}
	for p.Model() == nil || p.Model().ID != "v2" {
		time.Sleep(time.Millisecond)
	}
	fmt.Println("model v2 active (installed between micro-batches; engine metrics below)")

	// Phase 3: the same bad traces again — only fetch anomalies now.
	t2 := t1.Add(time.Hour)
	fmt.Println("\nphase 3: model v2 (probe automaton gone)")
	send(
		fmt.Sprintf("%s probe pg-9100 echoed rtt 5 ms", stamp(t2)),   // silent now
		fmt.Sprintf("%s fetch ft-9100 finished bytes 10", stamp(t2)), // still an anomaly
	)

	if err := p.Stop(); err != nil {
		log.Fatal(err)
	}
	m := p.Engine().Metrics()
	fmt.Printf("\nsummary: probe anomalies %d (1 before the update, 0 after), fetch anomalies %d\n",
		probeAnoms.Load(), fetchAnoms.Load())
	fmt.Printf("engine: %d records in %d micro-batches, %d model update(s), update lock-step %v, %d model pull(s) by partition workers\n",
		m.Records, m.Batches, m.UpdatesApplied, m.UpdateBlocked, m.BroadcastPulls)
}
